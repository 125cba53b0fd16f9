"""Solving delta(g) = t0 g - g t0 through the sup-norm model space.

A cocycle delta on a finite unitary group is inner exactly when the
model-space system

    E(delta(g)) = T g - P_g T          for all g in G

has a solution T; projecting any model solution back with the
pseudoinverse of the norming matrix yields a genuine d x d witness t0,
because the projection intertwines both one-sided actions.

Three routes to T are implemented and kept deliberately independent:

  orbit_center    fixed point of the induced affine isometry group,
                  taken as the relative (enclosing-ball) center of the
                  orbit of the origin;
  averaging       the barycenter of that same orbit in closed form,
                  mean of E(delta(g)) g^H, exactly invariant by the law;
  least_squares   minimum-norm solution of the stacked linear system,
                  no fixed-point machinery involved.

Agreement of their residuals on valid data, and joint refusal on
corrupted data, is the cross-check the test suite leans on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycles import CayleyGroup, DerivationData, translation_cocycle_defect
from .errors import SpaceMismatchError
from .isometries import FiberPermIsometry, GroupSpec
from .iterate import fixed_point_residual, orbit_center_fixed_point
from .spaces import SupPoint
from .unitary import (
    NormingSet,
    basis_orbit_norming_set,
    embed,
    realify_matrix,
    tilde_permutation,
)

WITNESS_METHODS = ("orbit_center", "averaging", "least_squares")
FLAG_TOL = 1e-6


@dataclass(frozen=True)
class AffineActionModel:
    """The isometry group on l-infinity(Gamma, R^{2d}) induced by a cocycle.

    Element l acts by M -> P_l M g_l^{-1} + E(delta(g_l)) g_l^{-1}; its
    fixed points are exactly the model solutions T.
    """

    derivation: DerivationData
    norming: NormingSet
    group_spec: GroupSpec
    sigmas: np.ndarray  # (|G|, size) tilde permutations
    targets: np.ndarray  # (|G|, size, d) complex, E(delta(g)) g^H

    @property
    def size(self) -> int:
        return self.norming.size

    @property
    def d(self) -> int:
        return self.derivation.d

    def encode(self, m_mat: np.ndarray) -> SupPoint:
        m_mat = np.asarray(m_mat, dtype=complex)
        return SupPoint(np.concatenate([m_mat.real, m_mat.imag], axis=1))

    def decode(self, x: SupPoint) -> np.ndarray:
        d = self.d
        return x.fibers[:, :d] + 1j * x.fibers[:, d:]

    def origin(self) -> SupPoint:
        return SupPoint(np.zeros((self.size, 2 * self.d)))


def build_affine_action(
    derivation: DerivationData, norming: NormingSet | None = None
) -> AffineActionModel:
    group = derivation.group
    if norming is None:
        norming = basis_orbit_norming_set(group)
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

    targets = embed(norming, derivation.values) @ elements.conj().transpose(0, 2, 1)
    # kets transform by (g^{-1})^T, the same orthogonal map in every fiber
    maps = np.broadcast_to(
        realify_matrix(elements.conj())[:, None], (n, size, 2 * d, 2 * d)
    ).copy()
    trans = np.concatenate([targets.real, targets.imag], axis=2)
    isos = [FiberPermIsometry(sigmas[l], maps[l], trans[l]) for l in range(n)]

    gen_indices = [group.words.index((i,)) for i in range(len(group.generators))]
    spec = GroupSpec(
        generators=tuple(isos[i] for i in gen_indices),
        elements=tuple(isos),
        words=group.words,
    )
    return AffineActionModel(derivation, norming, spec, sigmas, targets)


def model_residual(model: AffineActionModel, t_mat: np.ndarray) -> float:
    """max over g of the worst fiber norm of T g - P_g T - E(delta(g)).

    NaN in the data propagates to the result, so it is never within a tolerance.
    """
    group = model.derivation.group
    worst = np.empty(len(group))
    for l in range(len(group)):
        defect = (
            t_mat @ group.elements[l]
            - t_mat[model.sigmas[l]]
            - embed(model.norming, model.derivation.values[l])
        )
        worst[l] = np.linalg.norm(defect, axis=1).max()
    return float(worst.max())


def recover_witness(model: AffineActionModel, t_mat: np.ndarray) -> np.ndarray:
    """Project the model solution to d x d: t0 = J^+ T with J the norming matrix."""
    j_mat = embed(model.norming, np.eye(model.d))
    t0, *_ = np.linalg.lstsq(j_mat, np.asarray(t_mat, dtype=complex), rcond=None)
    return t0


def witness_residual(derivation: DerivationData, t0: np.ndarray) -> float:
    g = derivation.group.elements
    defect = (
        np.einsum("ij,njl->nil", t0, g)
        - np.einsum("nij,jl->nil", g, t0)
        - derivation.values
    )
    return float(np.abs(defect).max())


@dataclass(frozen=True)
class WitnessReport:
    method: str
    t_model: np.ndarray  # (size, d) complex model solution
    t0: np.ndarray  # (d, d) complex recovered witness
    model_residual: float
    witness_residual: float
    fixed_point_residual: float | None
    flagged: bool
    flag_reason: str | None

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "t0": [[[z.real, z.imag] for z in row] for row in self.t0],
            "model_residual": self.model_residual,
            "witness_residual": self.witness_residual,
            "fixed_point_residual": self.fixed_point_residual,
            "flagged": self.flagged,
            "flag_reason": self.flag_reason,
        }


def _solve_least_squares(model: AffineActionModel) -> np.ndarray:
    group = model.derivation.group
    n, d, size = len(group), model.d, model.size
    # row-major vec: vec(T g) = (I (x) g^T) vec T, vec(P T) = (P (x) I) vec T;
    # block l of the system is their difference, written in place
    a_mat = np.zeros((n * size * d, size * d), dtype=complex)
    blocks = a_mat.reshape(n, size, d, size, d)  # [l, i, a, j, b]
    diag = np.arange(size)
    blocks[:, diag, :, diag, :] = group.elements.transpose(0, 2, 1)
    l_idx, i_idx, a_idx = np.ix_(np.arange(n), diag, np.arange(d))
    blocks[l_idx, i_idx, a_idx, model.sigmas[:, :, None], a_idx] -= 1.0
    b_vec = embed(model.norming, model.derivation.values).reshape(-1)
    sol, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    return sol.reshape(size, d)


def _solve_averaging(model: AffineActionModel) -> np.ndarray:
    return model.targets.mean(axis=0)


def solve_witness(
    derivation: DerivationData,
    method: str = "least_squares",
    norming: NormingSet | None = None,
    flag_tol: float = FLAG_TOL,
) -> WitnessReport:
    """Produce a witness candidate and its honest residuals.

    A report is flagged, never silently zeroed, when the model system has
    no solution at the requested quality; corrupted cocycle data lands
    here when law checking was skipped upstream.
    """
    if method not in WITNESS_METHODS:
        raise ValueError(f"unknown method {method!r}")
    model = build_affine_action(derivation, norming)

    fp_res: float | None = None
    if method == "least_squares":
        t_mat = _solve_least_squares(model)
    elif method == "averaging":
        t_mat = _solve_averaging(model)
    elif np.isfinite(model.targets).all():
        z = orbit_center_fixed_point(model.group_spec, model.origin())
        fp_res = fixed_point_residual(model.group_spec, z)
        t_mat = model.decode(z)
    else:  # non-finite data: the orbit leaves the space, so it has no center
        t_mat = np.full((model.size, model.d), np.nan, dtype=complex)
        fp_res = float("nan")

    m_res = model_residual(model, t_mat)
    t0 = recover_witness(model, t_mat)
    w_res = witness_residual(derivation, t0)
    flagged = not m_res <= flag_tol
    reason = None
    if flagged:
        reason = (
            f"model system is inconsistent at residual {m_res:.3e}; "
            "no witness of the required form exists"
        )
    return WitnessReport(method, t_mat, t0, m_res, w_res, fp_res, flagged, reason)


@dataclass(frozen=True)
class SimilarityReport:
    """Block-triangular change of basis absorbing the cocycle.

    With J = E(I), S = [[J, T], [0, J]] intertwines the block maps
    u(g) = [[g, -delta(g)], [0, g]] with the doubled permutation action:
    S u(g) = diag(P_g, P_g) S.  S has the explicit left inverse
    [[J^+, -J^+ T J^+], [0, J^+]].
    """

    s_mat: np.ndarray  # (2 size, 2 d)
    s_left_inv: np.ndarray  # (2 d, 2 size)
    intertwine_residual: float
    left_inverse_residual: float
    homomorphism_residual: float
    s_norm: float
    s_left_inv_norm: float

    def as_dict(self) -> dict:
        return {
            "intertwine_residual": self.intertwine_residual,
            "left_inverse_residual": self.left_inverse_residual,
            "homomorphism_residual": self.homomorphism_residual,
            "s_norm": self.s_norm,
            "s_left_inv_norm": self.s_left_inv_norm,
        }


def build_similarity(model: AffineActionModel, t_mat: np.ndarray) -> SimilarityReport:
    group = model.derivation.group
    size, d, n = model.size, model.d, len(group)
    j_mat = embed(model.norming, np.eye(d))
    t_mat = np.asarray(t_mat, dtype=complex)

    zero_sd = np.zeros((size, d))
    s_mat = np.block([[j_mat, t_mat], [zero_sd, j_mat]])
    j_pinv = np.linalg.pinv(j_mat)
    zero_ds = np.zeros((d, size))
    s_left_inv = np.block([[j_pinv, -j_pinv @ t_mat @ j_pinv], [zero_ds, j_pinv]])

    # u(g) = [[g, -delta(g)], [0, g]] for every element
    us = np.zeros((n, 2 * d, 2 * d), dtype=complex)
    us[:, :d, :d] = us[:, d:, d:] = group.elements
    us[:, :d, d:] = -model.derivation.values
    # diag(P_g, P_g) S is a row gather of S
    rows = np.concatenate([model.sigmas, model.sigmas + size], axis=1)
    inter, hom = np.empty(n), np.empty(n)
    for l in range(n):
        inter[l] = np.abs(s_mat @ us[l] - s_mat[rows[l]]).max()
        hom[l] = np.abs(us[group.cayley[l]] - us[l] @ us).max()

    left_res = float(np.abs(s_left_inv @ s_mat - np.eye(2 * d)).max())
    return SimilarityReport(
        s_mat=s_mat,
        s_left_inv=s_left_inv,
        intertwine_residual=float(inter.max()),
        left_inverse_residual=left_res,
        homomorphism_residual=float(hom.max()),
        s_norm=float(np.linalg.norm(s_mat, 2)),
        s_left_inv_norm=float(np.linalg.norm(s_left_inv, 2)),
    )


@dataclass(frozen=True)
class GroupAlgebraReport:
    t_witness: np.ndarray  # (|G|,) recovered function, mean zero
    residual: float
    law_defect: float
    flagged: bool

    def as_dict(self) -> dict:
        return {
            "t_witness": [float(x) for x in self.t_witness],
            "residual": self.residual,
            "law_defect": self.law_defect,
            "flagged": self.flagged,
        }


def finite_group_algebra_witness(
    group: CayleyGroup, c: np.ndarray, flag_tol: float = FLAG_TOL
) -> GroupAlgebraReport:
    """Find t with c[g, s] = t[g s] - t[s g] by averaging the affine orbit.

    Element g acts on functions by x -> x(g^{-1} s g) + c[g, g^{-1} s];
    the barycenter of the orbit of zero is invariant whenever c obeys the
    law, and the witness identity is read off the fixed point.  Only the
    mean-zero part of t is determined, so that representative is reported.
    """
    c = np.asarray(c, dtype=float)
    n = len(group)
    if c.shape != (n, n):
        raise SpaceMismatchError("cocycle table must be |G| x |G|")
    # row g: s -> c[g, g^{-1} s]
    orbit_of_zero = c[np.arange(n)[:, None], group.table[group.inverse]]
    t = orbit_of_zero.mean(axis=0)
    t = t - t.mean()
    residual = float(np.abs(c - (t[group.table] - t[group.table.T])).max())
    defect = translation_cocycle_defect(group, c)
    return GroupAlgebraReport(t, residual, defect, not residual <= flag_tol)
