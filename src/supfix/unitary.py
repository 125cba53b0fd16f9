"""Finite unitary matrix groups and their sup-norm model embedding.

A finite group G of d x d unitaries acts on the model space l-infinity
over a finite norming set Gamma of unit vectors, chosen here as the orbit
of the standard basis under G.  The embedding

    E(a)[i, :] = gamma_i^H a        (a any d x d matrix)

is injective (Gamma spans) and translates the two one-sided
multiplications into model-space operations:

    E(g a) = P_g E(a)      row permutation, gamma_{sigma_g(i)} = g^H gamma_i
    E(a g) = E(a) g        right matrix action, an isometry of each row

so matrix identities can be checked or solved entirely inside the model.
`realify_matrix` turns complex fibers, or a whole stack of them, into
real ones of twice the dimension, which is what the generic isometry
machinery consumes.  Vectors are matched to the norming set the way
closure products are matched to known elements, within the norming
set's `tol` (_MATCH_TOL unless set otherwise) in every entry, with all
pairs compared in one array operation.

Groups are closed by `groups.closure`, the same breadth-first kernel as
the isometry groups, with the matrix itself as signature: a product
within _MATCH_TOL of a known element in every entry (max |diff| <=
_MATCH_TOL) is a duplicate.  The Cayley table and the inverses are
gathers from the closure's right-multiplication table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import SpaceMismatchError
from .groups import cayley_table, closure, inverse_indices, word_labels

_UNITARY_TOL = 1e-9
# Entrywise distance within which two matrices, or two vectors, are the same.
_MATCH_TOL = 1e-9


def _check_unitary(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=complex)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise SpaceMismatchError("group elements must be square matrices")
    if not np.allclose(g.conj().T @ g, np.eye(g.shape[0]), atol=_UNITARY_TOL):
        raise ValueError("matrix is not unitary")
    return g


@dataclass(frozen=True)
class UnitaryGroup:
    """Closed finite list of unitaries with generator words and parent links."""

    generators: np.ndarray  # (n_gen, d, d)
    elements: np.ndarray  # (n, d, d), identity first
    words: tuple[tuple[int, ...], ...]
    parents: tuple[tuple[int, int] | None, ...]  # (parent index, generator index)
    right: np.ndarray  # (n, n_gen): index of elements[i] @ generators[g]

    @property
    def d(self) -> int:
        return self.elements.shape[1]

    def __len__(self) -> int:
        return self.elements.shape[0]

    @property
    def labels(self) -> tuple[str, ...]:
        return word_labels(self.words)

    @cached_property
    def cayley(self) -> np.ndarray:
        """cayley[i, j] = index of elements[i] @ elements[j]."""
        return cayley_table(self.parents, self.right)

    @cached_property
    def inverse(self) -> np.ndarray:
        return inverse_indices(self.cayley)


def unitary_closure(generators: Sequence[np.ndarray], cap: int = 256) -> UnitaryGroup:
    gens = np.stack([_check_unitary(g) for g in generators])
    found = closure(np.eye(gens.shape[1], dtype=complex), gens, np.matmul, np.ravel, cap,
                    _MATCH_TOL)
    return UnitaryGroup(gens, np.stack(found.elements), found.words, found.parents, found.right)


@dataclass(frozen=True)
class NormingSet:
    """G-stable spanning set of unit vectors indexing the model fibers."""

    vectors: np.ndarray  # (size, d) complex, rows are the norming vectors
    tol: float = _MATCH_TOL

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]


def basis_orbit_norming_set(group: UnitaryGroup) -> NormingSet:
    """Orbit of the standard basis under the group, deduplicated.

    Seeding with the full basis guarantees the set spans C^d, and closing
    under every group element makes it exactly G-stable.  The candidates
    g e_j are taken basis index outer, element inner, and each is kept
    unless it lies within _MATCH_TOL of a kept one (max |diff| <= _MATCH_TOL).
    """
    cands = group.elements.transpose(2, 0, 1).reshape(-1, group.d)  # row j n + l: g_l e_j
    close = np.abs(cands[:, None] - cands[None]).max(axis=2) <= _MATCH_TOL
    dropped = np.zeros(len(cands), dtype=bool)
    kept = []
    for a in range(len(cands)):
        if not dropped[a]:
            kept.append(a)
            dropped |= close[a]
    return NormingSet(cands[kept])


def embed(norming: NormingSet, a: np.ndarray) -> np.ndarray:
    """E(a): row i is gamma_i^H a.  Shape (size, d)."""
    return norming.vectors.conj() @ np.asarray(a, dtype=complex)


def tilde_permutation(norming: NormingSet, g: np.ndarray) -> np.ndarray:
    """sigma with gamma_{sigma(i)} = g^H gamma_i, so E(g a) = E(a)[sigma]."""
    pulled = norming.vectors @ g.conj()  # row i is (g^H gamma_i)^T
    diffs = np.abs(pulled[:, None] - norming.vectors[None]).max(axis=2)
    sigma = np.argmin(diffs, axis=1)
    if not np.all(diffs[np.arange(norming.size), sigma] <= norming.tol):
        raise SpaceMismatchError("norming set is not stable under the group")
    return sigma


def realify_matrix(b: np.ndarray) -> np.ndarray:
    """The real (2d, 2d) form acting on [Re; Im] stacks; orthogonal iff b is unitary.

    Realifies every matrix of a (..., d, d) stack at once.
    """
    b = np.asarray(b, dtype=complex)
    top = np.concatenate([b.real, -b.imag], axis=-1)
    bottom = np.concatenate([b.imag, b.real], axis=-1)
    return np.concatenate([top, bottom], axis=-2)
