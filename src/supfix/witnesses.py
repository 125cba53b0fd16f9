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

The group-only part of the model (norming set, permutations, fiber maps,
J and J^+) is the group's `ModelFrame`, built and checked once per group.
A model built for one cocycle adds E(delta(g)) for every g, embedded once,
and the targets made from it; the model residual and the least-squares
right-hand side read the same array.  The model applies its own isometry
group (`AffineActionModel.images`, all that `orbit` and the fixed-point
residual read), for the orbit_center route only: per fiber, one
matrix-vector product of the frame's (|G|, 2d, 2d) maps with the
permuted fibers, the same floats as an einsum over a copy of each map
per fiber, plus the realified targets as translations (`trans`, made on
the route's first call and kept; the other routes never read it).  The
method names, `WITNESS_METHODS`, are also the scenario schema's enum.
The model residual and the similarity residuals are stacked array
expressions over all elements at once (the homomorphism residual in row
blocks of about a megabyte), with the same floats as one element at a time.
The witness and group-algebra residuals compare the data with the
`cocycles` formulas (`inner_derivation`, `translation_cocycle`) of the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cocycles import (
    CayleyGroup,
    DerivationData,
    _twisted_table,
    inner_derivation,
    translation_cocycle,
    translation_law_worst_pair,
)
from .errors import SpaceMismatchError
from .isometries import _finite
from .iterate import fixed_point_residual, orbit_center_fixed_point
from .spaces import SupPoint
from .unitary import ModelFrame, embed

WITNESS_METHODS = ("orbit_center", "averaging", "least_squares")
FLAG_TOL = 1e-6
# Bytes per row block of the (rows, |G|, 2d, 2d) homomorphism temporaries.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class AffineActionModel:
    """The isometry group on l-infinity(Gamma, R^{2d}) induced by a cocycle.

    Element l acts by M -> P_l M g_l^{-1} + E(delta(g_l)) g_l^{-1}; its
    fixed points are exactly the model solutions T.
    """

    derivation: DerivationData
    frame: ModelFrame
    embedded: np.ndarray  # (|G|, size, d) complex, E(delta(g))
    targets: np.ndarray  # (|G|, size, d) complex, E(delta(g)) g^H

    @property
    def size(self) -> int:
        return len(self.frame.norming)

    @property
    def d(self) -> int:
        return self.derivation.d

    def decode(self, x: SupPoint) -> np.ndarray:
        d = self.d
        return x.fibers[:, :d] + 1j * x.fibers[:, d:]

    def origin(self) -> SupPoint:
        return SupPoint._trusted(np.zeros((self.size, 2 * self.d)))

    @cached_property
    def trans(self) -> np.ndarray:
        """(|G|, size, 2d) read-only realified targets, the translations of
        `images`, made on first use: only the orbit_center route reads them."""
        trans = np.concatenate([self.targets.real, self.targets.imag], axis=2)
        trans.setflags(write=False)
        return trans

    def images(self, x: SupPoint) -> np.ndarray:
        """The images of x under every element l, as one (|G|, size, 2d)
        array: fiber i of image l is the realified g_l^* applied to fiber
        sigma_l(i) of x, plus fiber i of the realified target."""
        if x.fibers.shape != (self.size, 2 * self.d):
            raise SpaceMismatchError("point shape does not match the model")
        xs = x.fibers[self.frame.sigmas]
        with np.errstate(over="ignore"):  # an overflow is refused by _finite
            out = (self.frame.maps[:, None] @ xs[..., None])[..., 0] + self.trans
        return _finite(out)


def build_affine_action(derivation: DerivationData) -> AffineActionModel:
    """The model of one cocycle: the group's frame, E(delta(g)) and the targets."""
    group = derivation.group
    frame = group.frame
    embedded = embed(frame.norming, derivation.values)
    targets = embedded @ group.elements.conj().transpose(0, 2, 1)
    return AffineActionModel(derivation, frame, embedded, targets)


def model_residual(model: AffineActionModel, t_mat: np.ndarray) -> float:
    """max over g of the worst fiber norm of T g - P_g T - E(delta(g)).

    NaN in the data propagates to the result, so it is never within a tolerance.
    """
    defect = t_mat @ model.derivation.group.elements - t_mat[model.frame.sigmas] - model.embedded
    return float(np.linalg.norm(defect, axis=2).max())


def recover_witness(model: AffineActionModel, t_mat: np.ndarray) -> np.ndarray:
    """Project the model solution to d x d: t0 = J^+ T with J the norming matrix."""
    t0, *_ = np.linalg.lstsq(model.frame.j_mat, np.asarray(t_mat, dtype=complex), rcond=None)
    return t0


def witness_residual(derivation: DerivationData, t0: np.ndarray) -> float:
    defect = inner_derivation(derivation.group, t0).values - derivation.values
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
    # block l of the system is their difference, written in place into the
    # transpose, so the system is column-major and lstsq copies whole columns
    a_t = np.zeros((size * d, n * size * d), dtype=complex)
    blocks = a_t.reshape(size, d, n, size, d).transpose(2, 3, 4, 0, 1)  # [l, i, a, j, b]
    diag = np.arange(size)
    blocks[:, diag, :, diag, :] = group.elements.transpose(0, 2, 1)
    l_idx, i_idx, a_idx = np.ix_(np.arange(n), diag, np.arange(d))
    blocks[l_idx, i_idx, a_idx, model.frame.sigmas[:, :, None], a_idx] -= 1.0
    b_vec = model.embedded.reshape(-1)
    sol, *_ = np.linalg.lstsq(a_t.T, b_vec, rcond=None)
    return sol.reshape(size, d)


def solve_witness(derivation: DerivationData, method: str = "least_squares") -> WitnessReport:
    """Produce a witness candidate and its honest residuals.

    A report is flagged, never silently zeroed, when the model system has
    no solution at the requested quality; corrupted cocycle data lands
    here when law checking was skipped upstream.
    """
    if method not in WITNESS_METHODS:
        raise ValueError(f"unknown method {method!r}")
    # inf data makes NaN and inf entries (inf * 0, inf - inf), which the
    # residuals carry into a flag; they are not worth a warning
    with np.errstate(invalid="ignore", over="ignore"):
        model = build_affine_action(derivation)

        fp_res: float | None = None
        if method == "least_squares":
            t_mat = _solve_least_squares(model)
        elif method == "averaging":
            t_mat = model.targets.mean(axis=0)  # the orbit's barycenter in closed form
        elif np.isfinite(model.targets).all():
            z = orbit_center_fixed_point(model, model.origin())
            fp_res = fixed_point_residual(model, z)
            t_mat = model.decode(z)
        else:  # non-finite data: the orbit leaves the space, so it has no center
            t_mat = np.full((model.size, model.d), np.nan, dtype=complex)
            fp_res = float("nan")

        m_res = model_residual(model, t_mat)
        t0 = recover_witness(model, t_mat)
        w_res = witness_residual(derivation, t0)
    flagged = not m_res <= FLAG_TOL
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


def _homomorphism_residual(us: np.ndarray, cayley: np.ndarray) -> float:
    """max over pairs (g, h) of |u(g h) - u(g) u(h)|, in blocks of rows g."""
    n = len(us)
    rows = max(1, _BLOCK_BYTES // (n * us[0].nbytes))
    worst = np.empty((n + rows - 1) // rows)
    for b, g in enumerate(range(0, n, rows)):
        block = us[cayley[g:g + rows]] - us[g:g + rows, None] @ us[None]
        worst[b] = np.abs(block).max()
    return float(worst.max())


def _spectral_norm(x: np.ndarray) -> float:
    """The largest singular value: the float np.linalg.norm(x, 2) returns,
    without its moveaxis and amax over the same singular values."""
    return float(np.linalg.svd(x, compute_uv=False)[0])


def build_similarity(model: AffineActionModel, t_mat: np.ndarray) -> SimilarityReport:
    group = model.derivation.group
    size, d, n = model.size, model.d, len(group)
    j_mat, j_pinv = model.frame.j_mat, model.frame.j_pinv
    t_mat = np.asarray(t_mat, dtype=complex)
    if t_mat.shape != (size, d):
        raise SpaceMismatchError("model solution must be norming size x d")

    s_mat = np.zeros((2 * size, 2 * d), dtype=complex)
    s_mat[:size, :d] = s_mat[size:, d:] = j_mat
    s_mat[:size, d:] = t_mat
    s_left_inv = np.zeros((2 * d, 2 * size), dtype=complex)
    s_left_inv[:d, :size] = s_left_inv[d:, size:] = j_pinv
    s_left_inv[:d, size:] = -j_pinv @ t_mat @ j_pinv

    # u(g) = [[g, -delta(g)], [0, g]] for every element
    us = np.zeros((n, 2 * d, 2 * d), dtype=complex)
    us[:, :d, :d] = us[:, d:, d:] = group.elements
    us[:, :d, d:] = -model.derivation.values
    # diag(P_g, P_g) S is a row gather of S
    rows = np.concatenate([model.frame.sigmas, model.frame.sigmas + size], axis=1)
    inter = float(np.abs(s_mat @ us - s_mat[rows]).max())

    left_res = float(np.abs(s_left_inv @ s_mat - np.eye(2 * d)).max())
    return SimilarityReport(
        s_mat=s_mat,
        s_left_inv=s_left_inv,
        intertwine_residual=inter,
        left_inverse_residual=left_res,
        homomorphism_residual=_homomorphism_residual(us, group.cayley),
        s_norm=_spectral_norm(s_mat),
        s_left_inv_norm=_spectral_norm(s_left_inv),
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


def finite_group_algebra_witness(group: CayleyGroup, c: np.ndarray) -> GroupAlgebraReport:
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
    orbit_of_zero = _twisted_table(group, c)  # row g: s -> c[g, g^{-1} s]
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is a NaN residual
        t = orbit_of_zero.mean(axis=0)
        t = t - t.mean()
        residual = float(np.abs(c - translation_cocycle(group, t)).max())
    defect = translation_law_worst_pair(group, c)[0]
    return GroupAlgebraReport(t, residual, defect, not residual <= FLAG_TOL)
