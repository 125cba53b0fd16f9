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
_MATCH_TOL) is a duplicate.  The Cayley table is a gather from the
closure's right-multiplication table.  A closed group's arrays are
read-only, so one group can be shared: `instances.unitary_group` closes
each named group once per process.

Everything about the model that depends on the group alone (the norming
set, its permutations sigma_g, the realified fiber maps, J = E(I) and
J^+) is one `ModelFrame`, checked once when it is built.  A group builds
the frame over its basis-orbit norming set on first use and keeps it
(`UnitaryGroup.frame`), so the frame lives exactly as long as the group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import SpaceMismatchError
from .groups import cayley_table, closure, word_labels
from .isometries import _orthogonal

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
        table = cayley_table(self.parents, self.right)
        table.setflags(write=False)
        return table

    @cached_property
    def frame(self) -> ModelFrame:
        """The model frame over the basis-orbit norming set, built on first use."""
        return model_frame(self, basis_orbit_norming_set(self))


def unitary_closure(generators: Sequence[np.ndarray], cap: int = 256) -> UnitaryGroup:
    gens = np.stack([_check_unitary(g) for g in generators])
    found = closure(np.eye(gens.shape[1], dtype=complex), gens, np.matmul, np.ravel, cap,
                    _MATCH_TOL)
    elements = np.stack(found.elements)
    for arr in (gens, elements, found.right):
        arr.setflags(write=False)
    return UnitaryGroup(gens, elements, found.words, found.parents, found.right)


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
    vectors = cands[kept]
    vectors.setflags(write=False)
    return NormingSet(vectors)


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


@dataclass(frozen=True)
class ModelFrame:
    """The group-only part of the affine-action model over one norming set.

    Arrays are read-only: one frame serves every cocycle on its group.
    """

    norming: NormingSet
    sigmas: np.ndarray  # (|G|, size) tilde permutations, gamma_{sigma_l(i)} = g_l^H gamma_i
    maps: np.ndarray  # (|G|, size, 2d, 2d) realified g_l^*, the same map in every fiber
    j_mat: np.ndarray  # (size, d) complex, J = E(I)
    j_pinv: np.ndarray  # (d, size) complex, J^+


def model_frame(group: UnitaryGroup, norming: NormingSet) -> ModelFrame:
    """Permutations and fiber maps of every element, checked as whole stacks.

    Raises SpaceMismatchError when the norming set is not stable under the
    group, and ValueError where the checking FiberPermIsometry constructor
    would refuse an element (a sigma that is not a permutation, a fiber map
    that is not orthogonal).
    """
    n, d, size = len(group), group.d, norming.size
    elements = group.elements

    # g = p s for the BFS parent p and generator s: g^H gamma_i = s^H gamma_{sigma_p(i)}
    gen_sigmas = [tilde_permutation(norming, s) for s in group.generators]
    sigmas = np.empty((n, size), dtype=int)
    sigmas[0] = np.arange(size)
    for l in range(1, n):
        p, gi = group.parents[l]
        sigmas[l] = gen_sigmas[gi][sigmas[p]]
    pulled = norming.vectors @ elements.conj()  # [l, i] is (g_l^H gamma_i)^T
    if not np.all(np.abs(pulled - norming.vectors[sigmas]).max(axis=2) <= norming.tol):
        raise SpaceMismatchError("norming set is not stable under the group")

    # kets transform by (g^{-1})^T, the same orthogonal map in every fiber
    real_maps = realify_matrix(elements.conj())
    # FiberPermIsometry's checks, once for the whole model: every fiber
    # copies one of the n maps, and every row of sigmas is a permutation
    if not (np.sort(sigmas, axis=1) == np.arange(size)).all():
        raise ValueError("perm is not a permutation")
    if not _orthogonal(real_maps):
        raise ValueError("fiber maps must be orthogonal")
    maps = np.broadcast_to(real_maps[:, None], (n, size, 2 * d, 2 * d)).copy()
    j_mat = embed(norming, np.eye(d))
    j_pinv = np.linalg.pinv(j_mat)
    for arr in (sigmas, maps, j_mat, j_pinv):
        arr.setflags(write=False)
    return ModelFrame(norming, sigmas, maps, j_mat, j_pinv)
