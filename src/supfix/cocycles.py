"""Derivation-style cocycles on finite groups, matrix and scalar flavor.

A map g -> delta(g) into d x d matrices is a cocycle when it satisfies
the multiplicative Leibniz law

    delta(g h) = delta(g) h + g delta(h)

on every pair of elements.  `check_cocycle` checks the law on the full
multiplication table and raises on any defect above tolerance, so
corrupted inputs are detected here rather than miles later as a
mysteriously bad least-squares fit.

The scalar flavor lives on the function space over an abstract finite
group: c(g)(s) = t(g s) - t(s g) for a fixed function t, with the law
c(g h)(s) = c(g)(h s) + c(h)(s g).

Both laws are checked as gathers over the Cayley table (the matrix one
with batched products over all pairs, the scalar one a row g at a time),
and inverses come from `groups.inverse_indices`.  Matrix groups are
closed by the kernel in `groups.py`, where duplicates are products within
a fixed tolerance of a known element in every entry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CocycleInconsistencyError, SpaceMismatchError
from .groups import inverse_indices
from .unitary import UnitaryGroup

# Largest law defect accepted as a cocycle, for the matrix and the scalar law.
LAW_TOL = 1e-8


def _worst_pair(defects: np.ndarray) -> tuple[float, int, int]:
    """The largest entry with its (row, column), first in row-major order."""
    i, j = np.unravel_index(np.argmax(defects), defects.shape)
    return float(defects[i, j]), int(i), int(j)


@dataclass(frozen=True)
class DerivationData:
    """Cocycle values on every group element, aligned with group.elements."""

    group: UnitaryGroup
    values: np.ndarray  # (|G|, d, d) complex

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (len(self.group), self.group.d, self.group.d):
            raise SpaceMismatchError("derivation values do not match the group")
        object.__setattr__(self, "values", vals)

    @property
    def d(self) -> int:
        return self.group.d


def inner_derivation(group: UnitaryGroup, t0: np.ndarray) -> DerivationData:
    """delta(g) = t0 g - g t0 for every element; always satisfies the law."""
    t0 = np.asarray(t0, dtype=complex)
    vals = np.einsum("ij,njl->nil", t0, group.elements) - np.einsum(
        "nij,jl->nil", group.elements, t0
    )
    return DerivationData(group, vals)


def cocycle_defect(data: DerivationData) -> tuple[float, int, int]:
    """Worst violation of the Leibniz law over all element pairs.

    Returns (defect, i, j) for the worst pair of element indices.
    """
    elems, vals = data.group.elements, data.values
    expect = vals[:, None] @ elems[None] + elems[:, None] @ vals[None]
    return _worst_pair(np.abs(vals[data.group.cayley] - expect).max(axis=(2, 3)))


def check_cocycle(data: DerivationData, tol: float = LAW_TOL) -> float:
    defect, i, j = cocycle_defect(data)
    if not defect <= tol:  # NaN is never within tolerance
        labels = data.group.labels
        raise CocycleInconsistencyError(labels[i], labels[j], defect)
    return defect


@dataclass(frozen=True)
class CayleyGroup:
    """Abstract finite group as labels plus a multiplication table.

    table[i, j] is the index of the product of elements i and j; index 0
    is the identity.
    """

    labels: tuple[str, ...]
    table: np.ndarray  # (n, n) int

    def __post_init__(self):
        table = np.asarray(self.table, dtype=int)
        n = len(self.labels)
        if table.shape != (n, n):
            raise SpaceMismatchError("multiplication table shape mismatch")
        if not (np.all(table[0] == np.arange(n)) and np.all(table[:, 0] == np.arange(n))):
            raise ValueError("index 0 must be the identity")
        if n and not (table.min() >= 0 and table.max() < n):
            raise ValueError("multiplication table entries must be element indices")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def inverse(self) -> np.ndarray:
        return inverse_indices(self.table)

    @classmethod
    def cyclic(cls, n: int) -> "CayleyGroup":
        labels = tuple(f"r{i}" for i in range(n))
        i = np.arange(n)
        return cls(labels, (i[:, None] + i[None, :]) % n)

    @classmethod
    def symmetric(cls, n: int) -> "CayleyGroup":
        perms = list(itertools.permutations(range(n)))  # lexicographic, identity first
        arr = np.array(perms, dtype=int).reshape(len(perms), n)
        products = arr[np.arange(len(perms))[:, None, None], arr[None]]  # [i, j, x] = p_i(p_j(x))
        place = n ** np.arange(n - 1, -1, -1)  # lexicographic order = order of these codes
        table = np.searchsorted(arr @ place, products @ place)
        labels = tuple("".join(str(x) for x in p) for p in perms)
        return cls(labels, table)


def translation_cocycle(group: CayleyGroup, t: np.ndarray) -> np.ndarray:
    """c[g, s] = t[g s] - t[s g]; the scalar analog of an inner derivation."""
    t = np.asarray(t, dtype=float)
    if t.shape != (len(group),):
        raise SpaceMismatchError("t must be one scalar per group element")
    return t[group.table] - t[group.table.T]


def translation_law_worst_pair(group: CayleyGroup, c: np.ndarray) -> tuple[float, int, int]:
    """Worst violation of c[g h, s] = c[g, h s] + c[h, s g], with the pair."""
    c = np.asarray(c, dtype=float)
    n = len(group)
    if c.shape != (n, n):
        raise SpaceMismatchError("cocycle table must be |G| x |G|")
    table = group.table
    c_t = np.ascontiguousarray(c.T)
    defects = np.empty((n, n))
    # Row h of each term, over s: lhs = c[g h, s], rhs = c[g, h s], and
    # c[h, s g], gathered as rhs_t[s, h], row s g of the transpose.  The
    # table holds checked element indices, so mode="clip" clips nothing; it
    # only lets np.take write straight into the buffers.
    lhs, rhs, rhs_t = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
    for g in range(n):
        np.take(c, table[g], axis=0, out=lhs, mode="clip")
        np.take(c[g], table, out=rhs, mode="clip")
        np.take(c_t, table[:, g], axis=0, out=rhs_t, mode="clip")
        np.add(rhs, rhs_t.T, out=rhs)
        np.subtract(lhs, rhs, out=lhs)
        np.abs(lhs, out=lhs)
        np.max(lhs, axis=1, out=defects[g])
    return _worst_pair(defects)


def check_translation_cocycle(group: CayleyGroup, c: np.ndarray, tol: float = LAW_TOL) -> float:
    """The worst translation-law defect; raises naming its pair when above tol."""
    defect, g, h = translation_law_worst_pair(group, c)
    if not defect <= tol:  # NaN is never within tolerance
        raise CocycleInconsistencyError(group.labels[g], group.labels[h], defect)
    return defect


def translation_cocycle_defect(group: CayleyGroup, c: np.ndarray) -> float:
    return translation_law_worst_pair(group, c)[0]
