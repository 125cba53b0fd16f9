"""The finite-group kernel behind the isometry and unitary groups.

`closure` is the package's one breadth-first closure.  Starting from the
identity it takes the elements in order and asks `products(a)` for the
products of each element a by every generator, on the right, in
generator order: one call per element, in element order.  It appends
each product it has not seen, and decides "seen" in one of two modes:

- Tolerance (a float `tol`): a product counts as seen when its signature
  lies within `tol` of a stored one in every entry (max |diff| <= tol),
  the first such one in index order.  The stored signatures fill one
  preallocated (cap, L) array, so each check is one array comparison.
- Exact (`tol=None`): the signature is a hashable key (the element
  itself when `signature` is None), and a product counts as seen when
  its key equals a stored one, found by one dict lookup.  The caller
  chooses this mode only where equal keys and the tolerance rule name
  the same elements, so both modes visit the same products in the same
  order and record the same words, parents and table, and raise
  GroupNotClosedError at the same count.

The closure records the generator words, the BFS parents and the
right-multiplication table; the Cayley table and the inverses are gathers
from those, with no further element comparisons.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import GroupNotClosedError


class Closure(NamedTuple):
    elements: list
    words: tuple[tuple[int, ...], ...]  # generator indices, multiplied left to right
    parents: tuple[tuple[int, int] | None, ...]  # (parent index, generator index)
    right: np.ndarray  # (n, n_gen): index of elements[i] * generators[g]


def closure(
    identity,
    products: Callable,
    signature: Callable | None,
    cap: int,
    tol: float | None,
) -> Closure:
    """Close under right multiplication by the generators, breadth first.

    `products(a)` returns a * g for every generator g, in generator order.
    With `tol=None` the signatures are hashable keys compared for
    equality, and `signature=None` makes each element its own key;
    otherwise they are arrays compared within `tol`.
    Raises GroupNotClosedError when more than `cap` distinct elements
    appear, so a typo in the generator data fails fast instead of looping.
    """
    message = f"closure exceeded {cap} elements; generators look non-terminating"
    if cap < 1:  # the identity alone is one element
        raise GroupNotClosedError(message)
    if tol is None:
        seen = {identity if signature is None else signature(identity): 0}
    else:
        first = np.ravel(signature(identity))
        sigs = np.empty((cap, first.size), dtype=first.dtype)
        sigs[0] = first
    elements = [identity]
    words: list[tuple[int, ...]] = [()]
    parents: list[tuple[int, int] | None] = [None]
    right = []
    i = 0
    while i < len(elements):
        row = []
        for gi, cand in enumerate(products(elements[i])):
            n = len(elements)
            if tol is None:
                sig = cand if signature is None else signature(cand)
                hit = seen.get(sig)
            else:
                sig = signature(cand).ravel()
                hits = np.abs(sigs[:n] - sig).max(axis=1) <= tol
                hit = int(hits.argmax())  # the first True in index order
                if not hits[hit]:
                    hit = None
            if hit is not None:
                row.append(hit)
                continue
            if n >= cap:
                raise GroupNotClosedError(message)
            if tol is None:
                seen[sig] = n
            else:
                sigs[n] = sig
            elements.append(cand)
            words.append(words[i] + (gi,))
            parents.append((i, gi))
            row.append(n)
        right.append(row)
        i += 1
    return Closure(elements, tuple(words), tuple(parents), np.array(right, dtype=int))


def word_labels(words: Sequence[tuple[int, ...]]) -> tuple[str, ...]:
    """'e' for the identity, else the generator word as 'g0*g1*...'."""
    return tuple("e" if not w else "*".join(f"g{i}" for i in w) for w in words)


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
