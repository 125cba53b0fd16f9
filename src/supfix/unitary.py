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
machinery consumes.

A finite unitary group acts faithfully, by permutations, on the orbit of
the standard basis, because that orbit spans.  The orbit is taken
breadth first under the generators, each g v matched to the vectors
found so far within _MATCH_TOL in every entry (max |diff| <= _MATCH_TOL):
the one tolerance decision of a closure.  `groups.closure` then closes
the generators' orbit permutations with their bytes as keys, and each
element is the matrix `a @ g` of its BFS parent a and generator g; an
element's label, its generator word, is read off the same parents.  The
Cayley table is a gather from the closure's right-multiplication table,
and the basis-orbit norming set keeps one candidate g e_j per orbit
index.  A closed group's arrays are read-only, so one group can be
shared: `unitary_closure` keeps the last _CLOSED_GROUPS groups it
closed, keyed by the checked complex generator stack (shape and bytes)
and the cap, and returns the kept object when the same generators and
cap come again.  A failed closure is not kept, so it raises again on
every call.

Everything about the model that depends on the group alone (the norming
set, its permutations sigma_g, the realified fiber map of each element,
which acts the same in every fiber, J = E(I) and J^+) is one
`ModelFrame`, its permutations read off the closure's orbit
permutations.  A group builds the frame on first use and keeps it
(`UnitaryGroup.frame`), so the frame lives exactly as long as the group,
and a group `unitary_closure` keeps carries its Cayley table and frame
from one derivation to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import SpaceMismatchError
from .groups import cap_error, cayley_table, closure
from .isometries import _orthogonal

_UNITARY_TOL = 1e-9
# Entrywise distance within which two vectors are the same.
_MATCH_TOL = 1e-9
# Closed groups `unitary_closure` keeps; a 2I group (order 120) with its
# Cayley table and frame takes about 0.4 MB.
_CLOSED_GROUPS = 8


def _check_unitary(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=complex)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise SpaceMismatchError("group elements must be square matrices")
    if not np.allclose(g.conj().T @ g, np.eye(g.shape[0]), atol=_UNITARY_TOL):
        raise ValueError("matrix is not unitary")
    return g


@dataclass(frozen=True)
class UnitaryGroup:
    """Closed finite list of unitaries with parent links."""

    generators: np.ndarray  # (n_gen, d, d)
    elements: np.ndarray  # (n, d, d), identity first
    parents: tuple[tuple[int, int] | None, ...]  # (parent index, generator index)
    right: np.ndarray  # (n, n_gen): index of elements[i] @ generators[g]
    orbit_perms: np.ndarray  # (n, size): elements[l] @ v_i = v_{orbit_perms[l, i]}, v_j = e_j, j < d

    @property
    def d(self) -> int:
        return self.elements.shape[1]

    def __len__(self) -> int:
        return self.elements.shape[0]

    @property
    def labels(self) -> tuple[str, ...]:
        """'e' for the identity, else the generator word 'g0*g1*...' whose
        left-to-right product is the element, read off the BFS parents:
        element j is elements[p] @ generators[g] for parents[j] = (p, g)."""
        labels = ["e"]
        for p, g in self.parents[1:]:
            labels.append(f"g{g}" if p == 0 else f"{labels[p]}*g{g}")
        return tuple(labels)

    @cached_property
    def cayley(self) -> np.ndarray:
        """cayley[i, j] = index of elements[i] @ elements[j]."""
        table = cayley_table(self.parents, self.right)
        table.setflags(write=False)
        return table

    @cached_property
    def frame(self) -> ModelFrame:
        """The model frame over the basis-orbit norming set, built on first use."""
        return model_frame(self)


def unitary_closure(generators: Sequence[np.ndarray], cap: int = 256) -> UnitaryGroup:
    """The group the generators close to within cap elements, one shared
    read-only object per (generator stack, cap) while it is kept.

    Only a stack that is not kept is checked for unitarity: a kept group's
    generators passed the check with the same bytes.
    """
    mats = [np.asarray(g, dtype=complex) for g in generators]
    try:
        gens = np.stack(mats)
    except ValueError:  # no generators, or ragged: fail as the checks always have
        gens = np.stack([_check_unitary(m) for m in mats])
    return _closed_group(gens.shape, gens.tobytes(), cap)


@lru_cache(maxsize=_CLOSED_GROUPS)
def _closed_group(shape: tuple[int, ...], data: bytes, cap: int) -> UnitaryGroup:
    gens = np.frombuffer(data, dtype=complex).reshape(shape).copy()
    for g in gens:
        _check_unitary(g)
    gen_perms = _basis_orbit(gens, cap)
    found = closure(np.arange(gen_perms.shape[1]).tobytes(),
                    lambda a: [np.frombuffer(a, dtype=int)[p].tobytes() for p in gen_perms], cap)
    perms = np.frombuffer(b"".join(found.elements), dtype=int).reshape(len(found.elements), -1)
    elements = [np.eye(gens.shape[1], dtype=complex)]
    for p, gi in found.parents[1:]:
        elements.append(elements[p] @ gens[gi])
    elements = np.stack(elements)
    for arr in (gens, elements, found.right, perms):
        arr.setflags(write=False)
    return UnitaryGroup(gens, elements, found.parents, found.right, perms)


def _basis_orbit(gens: np.ndarray, cap: int) -> np.ndarray:
    """perms[g, i]: the index of gens[g] @ v_i in the orbit v of the standard
    basis, breadth first from v_j = e_j, each product matched to the first
    found vector within _MATCH_TOL in every entry.  Each of the d basis
    vectors has an orbit of at most |G| points, so the limit of d cap vectors
    refuses no group of order at most cap; a longer orbit raises
    GroupNotClosedError.
    """
    d = gens.shape[1]
    # the basis, then room for d cap vectors and a spare row; the closure refuses cap < 1
    vectors = np.eye(d * max(cap, 1) + 1, d, dtype=complex)
    perms, size = [], d
    while len(perms) < size:
        row = []
        for v in gens @ vectors[len(perms)]:
            vectors[size] = v  # in the spare row v matches itself, if no found vector
            close = np.abs(vectors[: size + 1] - v).max(axis=1) <= _MATCH_TOL
            row.append(int(close.argmax()))  # the first match
            size += row[-1] == size
            if size == len(vectors):  # more than d cap vectors
                raise cap_error(cap)
        perms.append(row)
    return np.array(perms).T


def _norming_rows(group: UnitaryGroup) -> tuple[np.ndarray, np.ndarray]:
    """(candidate j n + l, orbit index) of each basis-orbit norming row."""
    orbit = group.orbit_perms[:, : group.d].T.ravel()  # candidate j n + l: index of g_l e_j
    _, first = np.unique(orbit, return_index=True)
    first.sort()
    return first, orbit[first]


def basis_orbit_norming_set(group: UnitaryGroup) -> np.ndarray:
    """Orbit of the standard basis under the group, deduplicated: a
    G-stable spanning set of unit vectors, the read-only rows of a
    (size, d) complex array, indexing the model fibers.

    Seeding with the full basis guarantees the set spans C^d, and closing
    under every group element makes it exactly G-stable.  The candidates
    g_l e_j are taken basis index outer, element inner, and the first one
    at each orbit index (orbit_perms[l, j]) is kept.
    """
    cands = group.elements.transpose(2, 0, 1).reshape(-1, group.d)  # row j n + l: g_l e_j
    vectors = cands[_norming_rows(group)[0]]
    vectors.setflags(write=False)
    return vectors


def embed(norming: np.ndarray, a: np.ndarray) -> np.ndarray:
    """E(a): row i is gamma_i^H a.  Shape (size, d)."""
    return norming.conj() @ np.asarray(a, dtype=complex)


def tilde_permutation(norming: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sigma with gamma_{sigma(i)} = g^H gamma_i, so E(g a) = E(a)[sigma]."""
    pulled = norming @ g.conj()  # row i is (g^H gamma_i)^T
    diffs = np.abs(pulled[:, None] - norming[None]).max(axis=2)
    sigma = np.argmin(diffs, axis=1)
    if not np.all(diffs[np.arange(len(norming)), sigma] <= _MATCH_TOL):
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

    norming: np.ndarray  # (size, d) complex, rows are the norming vectors
    sigmas: np.ndarray  # (|G|, size) tilde permutations, gamma_{sigma_l(i)} = g_l^H gamma_i
    maps: np.ndarray  # (|G|, 2d, 2d) realified g_l^*, the map of every fiber of element l
    j_mat: np.ndarray  # (size, d) complex, J = E(I)
    j_pinv: np.ndarray  # (d, size) complex, J^+


def model_frame(group: UnitaryGroup) -> ModelFrame:
    """The frame over the basis-orbit norming set.

    Norming row r sits at orbit index o[r], and g_l^H = g_l^{-1} permutes
    the orbit by pi_l^{-1} for pi_l = orbit_perms[l], so sigma_l is
    o^{-1} pi_l^{-1} o, one exact gather.  Raises ValueError where the
    checking FiberPermIsometry constructor would refuse a fiber map (one
    that is not orthogonal).
    """
    norming, orbit = basis_orbit_norming_set(group), _norming_rows(group)[1]
    sigmas = np.argsort(orbit)[np.argsort(group.orbit_perms, axis=1)[:, orbit]]
    # kets transform by (g^{-1})^T, the same orthogonal map in every fiber
    maps = realify_matrix(group.elements.conj())
    if not _orthogonal(maps):  # FiberPermIsometry's check, once for the whole model
        raise ValueError("fiber maps must be orthogonal")
    j_mat = embed(norming, np.eye(group.d))
    j_pinv = np.linalg.pinv(j_mat)
    for arr in (sigmas, maps, j_mat, j_pinv):
        arr.setflags(write=False)
    return ModelFrame(norming, sigmas, maps, j_mat, j_pinv)
