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

Both laws are checked as gathers over the Cayley table, and inverses come
from `groups.inverse_indices`.  The matrix law is batched products over all
pairs.  The scalar law substitutes s = (g h)^{-1} v, which turns its three
terms into reads of one twisted table T[x, v] = c[x, x^{-1} v]: T[g h, v],
T[g, v] and T[h, g^{-1} v g].  It takes its rows g in blocks of about
`spaces._BLOCK_BYTES` per temporary, with v as the leading axis, so each block
costs one element gather, one row gather and a broadcast add, and the worst
defect over v is an elementwise max of contiguous (g, h) slabs.  A non-finite
value never raises a warning in either check: it gives a NaN or inf defect,
which fails it.  Matrix groups are closed in `unitary`, as permutations
of the standard basis orbit keyed by their bytes; the orbit vectors are
the one place a closure matches floats within a tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CocycleInconsistencyError, SpaceMismatchError
from .groups import inverse_indices
from .spaces import _BLOCK_BYTES, _fold_columns
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
    with np.errstate(invalid="ignore", over="ignore"):  # an inf value is a NaN or inf defect
        expect = vals[:, None] @ elems[None] + elems[:, None] @ vals[None]
        dev = np.abs(vals[data.group.cayley] - expect)
    # the max over the d x d entries as one ufunc call per entry, not one
    # inner-loop call per element pair; max is exact and NaN propagates
    return _worst_pair(_fold_columns(np.maximum, dev.reshape(*dev.shape[:2], -1)))


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
    is the identity.  Every row and every column must be a permutation of
    the elements, so each element has one inverse on either side.  The
    table is copied and kept read-only.  Associativity is a precondition
    that is not checked, since that would cost O(n^3): the tables of
    `cyclic` and `symmetric` and the Cayley table of a closed unitary
    group satisfy it.
    """

    labels: tuple[str, ...]
    table: np.ndarray  # (n, n) int

    def __post_init__(self):
        table = np.array(self.table, dtype=int)  # a copy: the caller's array stays writeable
        n = len(self.labels)
        if n == 0:
            raise ValueError("need at least one element")
        if table.shape != (n, n):
            raise SpaceMismatchError("multiplication table shape mismatch")
        if not (np.all(table[0] == np.arange(n)) and np.all(table[:, 0] == np.arange(n))):
            raise ValueError("index 0 must be the identity")
        if not (table.min() >= 0 and table.max() < n):
            raise ValueError("multiplication table entries must be element indices")
        # Row i (column j) holds each element once iff the n^2 codes
        # i n + table[i, j] (j n + table[i, j]) are all distinct.
        offsets = n * np.arange(n)[:, None]
        for t in (table, table.T):
            if np.count_nonzero(np.bincount((t + offsets).ravel(), minlength=n * n)) < n * n:
                raise ValueError("every row and column of the multiplication table must be "
                                 "a permutation of the elements")
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
        place = n ** np.arange(n - 1, -1, -1)  # base-n digits: one code per permutation
        rank = np.empty(n**n, dtype=int)
        rank[arr @ place] = np.arange(len(perms))
        # The code of p_i(p_j(x)) is sum over y = p_j(x) of p_i(y) place[p_j^-1(y)].
        table = rank[arr @ place[np.argsort(arr, axis=1)].T]
        labels = tuple("".join(str(x) for x in p) for p in perms)
        return cls(labels, table)


def translation_cocycle(group: CayleyGroup, t: np.ndarray) -> np.ndarray:
    """c[g, s] = t[g s] - t[s g]; the scalar analog of an inner derivation."""
    t = np.asarray(t, dtype=float)
    if t.shape != (len(group),):
        raise SpaceMismatchError("t must be one scalar per group element")
    return t[group.table] - t[group.table.T]


def _twisted_table(group: CayleyGroup, c: np.ndarray) -> np.ndarray:
    """T[x, v] = c[x, x^{-1} v]: row x of c, its columns permuted by left division by x."""
    return c[np.arange(len(group))[:, None], group.table[group.inverse]]


def translation_law_worst_pair(group: CayleyGroup, c: np.ndarray) -> tuple[float, int, int]:
    """Worst violation of c[g h, s] = c[g, h s] + c[h, s g], with the pair.

    The check substitutes s = (g h)^{-1} v and reads all three terms from
    the twisted table T[x, v] = c[x, x^{-1} v]:

        c[g h, s] = T[g h, v],   c[g, h s] = T[g, v],   c[h, s g] = T[h, g^{-1} v g].

    For each pair (g, h), v -> s is a bijection of the group, so the worst
    defect over v is the worst over s.  Each (g, h, v) takes the same three
    floats as (g, h, s) through the same add, subtract and abs, so the
    defects, the first worst pair and their NaN, inf, -0.0 and overflow
    cases are those of the law as written.  The substitution holds for a
    group table: `CayleyGroup` checks the identity and that every row and
    column is a permutation, and associativity is its precondition.
    """
    c = np.asarray(c, dtype=float)
    n = len(group)
    if c.shape != (n, n):
        raise SpaceMismatchError("cocycle table must be |G| x |G|")
    table = group.table
    twisted_t = np.ascontiguousarray(_twisted_table(group, c).T)  # [v, x] = T[x, v]
    conj_t = table[group.inverse, table]  # [v, g] = g^{-1} (v g)
    defects = np.empty((n, n))
    # A block of rows g at a time, v leading: a[v, g, h] = T[g h, v] is the
    # one element gather, b[v, g, h] = T[h, g^{-1} v g] a row gather, and
    # T[g, v] is added along h, so the worst over v is an elementwise max
    # of contiguous (g, h) slabs.  The indices are checked element indices,
    # so mode="clip" clips nothing; it only lets np.take write straight
    # into the buffers.  n >= 1, since index 0 is the identity.  Up to order
    # 36 all rows go in one block, from order 157 one row per block.
    rows = max(1, min(n, _BLOCK_BYTES // (n * n * c.itemsize)))
    a_buf, b_buf = np.empty(rows * n * n), np.empty(rows * n * n)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is a NaN defect
        for g0 in range(0, n, rows):
            g1 = min(g0 + rows, n)
            size = (g1 - g0) * n * n
            a = a_buf[:size].reshape(n, g1 - g0, n)
            b = b_buf[:size].reshape(n, g1 - g0, n)
            np.take(twisted_t, table[g0:g1], axis=1, out=a, mode="clip")
            np.take(twisted_t, conj_t[:, g0:g1], axis=0, out=b, mode="clip")
            np.add(twisted_t[:, g0:g1, None], b, out=b)  # c[g, h s] + c[h, s g]
            np.subtract(a, b, out=a)
            np.abs(a, out=a)
            np.maximum.reduce(a, axis=0, out=defects[g0:g1])
    return _worst_pair(defects)


def check_translation_cocycle(group: CayleyGroup, c: np.ndarray, tol: float = LAW_TOL) -> float:
    """The worst translation-law defect; raises naming its pair when above tol."""
    defect, g, h = translation_law_worst_pair(group, c)
    if not defect <= tol:  # NaN is never within tolerance
        raise CocycleInconsistencyError(group.labels[g], group.labels[h], defect)
    return defect
