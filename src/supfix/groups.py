"""The finite-group kernel behind the isometry and unitary groups.

`closure` is the package's one breadth-first closure.  Starting from the
identity it takes the elements in order and asks `products(a)` for the
products of each element a by every generator, on the right, in
generator order: one call per element, in element order.  Elements are
hashable keys, and a product is a duplicate exactly when it equals a
stored element, found by one dict lookup; every other product is
appended.  `isometries.group_closure` closes integer-coded isometries,
`unitary.unitary_closure` the permutations its matrices make of the
basis orbit, both as bytes.

The closure records the BFS parents and the right-multiplication table:
element j is elements[p] * generators[g] for parents[j] = (p, g), so an
element's generator word is its parent's word followed by g.  The Cayley
table and the inverses are gathers from those, with no further element
comparisons.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import GroupNotClosedError


class Closure(NamedTuple):
    elements: list
    parents: tuple[tuple[int, int] | None, ...]  # (parent index, generator index)
    right: np.ndarray  # (n, n_gen): index of elements[i] * generators[g]


def cap_error(cap: int) -> GroupNotClosedError:
    """The error of a group found to have more than `cap` elements."""
    return GroupNotClosedError(f"closure exceeded {cap} elements; generators look non-terminating")


def closure(identity, products: Callable, cap: int) -> Closure:
    """Close under right multiplication by the generators, breadth first.

    `products(a)` returns a * g for every generator g, in generator order.
    Raises GroupNotClosedError when more than `cap` distinct elements
    appear, so a typo in the generator data fails fast instead of looping.
    """
    if cap < 1:  # the identity alone is one element
        raise cap_error(cap)
    seen = {identity: 0}
    elements = [identity]
    parents: list[tuple[int, int] | None] = [None]
    right = []
    for i, a in enumerate(elements):  # elements grows as the loop runs
        row = []
        for gi, cand in enumerate(products(a)):
            hit = seen.get(cand)
            if hit is None:
                hit = len(elements)
                if hit >= cap:
                    raise cap_error(cap)
                seen[cand] = hit
                elements.append(cand)
                parents.append((i, gi))
            row.append(hit)
        right.append(row)
    return Closure(elements, tuple(parents), np.array(right, dtype=int))


def cayley_table(parents: Sequence[tuple[int, int] | None], right: np.ndarray) -> np.ndarray:
    """table[i, j] = index of elements[i] * elements[j].

    With elements[j] = elements[p] * generators[g] for the BFS parent p,
    column j is column p pushed through right multiplication by g.
    """
    n = right.shape[0]
    table = np.empty((n, n), dtype=int)
    table[:, 0] = np.arange(n)
    for j in range(1, n):
        p, g = parents[j]
        table[:, j] = right[table[:, p], g]
    return table


def inverse_indices(table: np.ndarray) -> np.ndarray:
    """inv[i] = the j with table[i, j] the identity (index 0)."""
    return np.argmax(table == 0, axis=1)
