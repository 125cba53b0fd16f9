"""Surjective affine isometries of the sup-norm model space.

Every map handled here permutes the index set, applies an orthogonal map
in each fiber, and translates:

    (phi x)_g = maps[g] @ x[perm[g]] + trans[g]

This family is closed under composition, which is all the group
machinery needs.  Finite groups are produced by the breadth-first
closure of `groups.closure` over right multiplication by the generators.
An element's signature is its image of a fixed probe cloud, so no
canonical form of the matrix data is required; a product whose signature
is within _CLOSURE_TOL of a known one in every entry (max |diff| <=
_CLOSURE_TOL) is a duplicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

try:  # the routine np.einsum calls when optimize is off: same floats, no wrapper
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum

from .boxes import Box, _box_over, _rescaled, _scaled
from .errors import SpaceMismatchError
from .groups import closure
from .spaces import PointCloud, SupPoint

_ORTHO_TOL = 1e-8
_CLOSURE_TOL = 1e-10


def _orthogonal(maps: np.ndarray) -> bool:
    """Whether every (k, k) map of the stack is orthogonal to _ORTHO_TOL.

    The test of np.allclose(M^T M, I, atol=_ORTHO_TOL), written out: it
    accepts and rejects the same Gram matrices (NaN and inf entries fail).
    """
    eye = np.eye(maps.shape[-1])
    gram = c_einsum("gij,gil->gjl", maps, maps)
    return bool((np.abs(gram - eye) <= _ORTHO_TOL + 1e-5 * eye).all())


@dataclass(frozen=True)
class FiberPermIsometry:
    perm: np.ndarray  # (m,) permutation of range(m)
    maps: np.ndarray  # (m, k, k) orthogonal fiber maps
    trans: np.ndarray  # (m, k)

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=int)
        maps = np.asarray(self.maps, dtype=float)
        trans = np.asarray(self.trans, dtype=float)
        m = perm.shape[0]
        if sorted(perm.tolist()) != list(range(m)):
            raise ValueError("perm is not a permutation")
        if maps.shape != (m, trans.shape[1], trans.shape[1]) or trans.shape[0] != m:
            raise SpaceMismatchError("inconsistent isometry data shapes")
        if not _orthogonal(maps):
            raise ValueError("fiber maps must be orthogonal")
        for name, arr in (("perm", perm), ("maps", maps), ("trans", trans)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def _trusted(cls, perm: np.ndarray, maps: np.ndarray, trans: np.ndarray) -> "FiberPermIsometry":
        """Wrap arrays that are valid by construction, skipping the checks.

        For products of checked maps: the permutations compose to a
        permutation and the orthogonal maps to orthogonal maps.
        """
        iso = object.__new__(cls)
        for name, arr in (("perm", perm), ("maps", maps), ("trans", trans)):
            arr.setflags(write=False)
            object.__setattr__(iso, name, arr)
        return iso

    @property
    def m(self) -> int:
        return self.perm.shape[0]

    @property
    def k(self) -> int:
        return self.trans.shape[1]

    @classmethod
    def identity(cls, m: int, k: int) -> "FiberPermIsometry":
        return cls._trusted(np.arange(m), np.broadcast_to(np.eye(k), (m, k, k)).copy(),
                            np.zeros((m, k)))

    def __call__(self, x: SupPoint) -> SupPoint:
        if x.m != self.m or x.k != self.k:
            raise SpaceMismatchError("point shape does not match isometry")
        with np.errstate(over="ignore"):  # SupPoint refuses an overflowed image
            out = np.einsum("gij,gj->gi", self.maps, x.fibers[self.perm]) + self.trans
        return SupPoint(out)


def compose(a: FiberPermIsometry, b: FiberPermIsometry) -> FiberPermIsometry:
    """The isometry x -> a(b(x))."""
    if a.trans.shape != b.trans.shape:
        raise SpaceMismatchError("cannot compose isometries of different spaces")
    p = a.perm
    perm = b.perm.take(p)
    maps = c_einsum("gij,gjl->gil", a.maps, b.maps.take(p, axis=0))
    trans = c_einsum("gij,gj->gi", a.maps, b.trans.take(p, axis=0))
    trans += a.trans
    return FiberPermIsometry._trusted(perm, maps, trans)


@lru_cache(maxsize=64)
def _probe_cloud(m: int, k: int) -> np.ndarray:
    """Fixed probe points whose images identify an isometry: the origin,
    one-hot points, and one generic point to split symmetric cases.
    Built once per (m, k) and shared, so read-only."""
    probes = [np.zeros((m, k))]
    one = np.zeros((m, k))
    one[0, 0] = 1.0
    probes.append(one)
    if m > 1 or k > 1:
        rng = np.random.default_rng(20240)
        probes.append(rng.standard_normal((m, k)))
    out = np.stack(probes)
    out.setflags(write=False)
    return out


def _signature(iso: FiberPermIsometry, probes: np.ndarray) -> np.ndarray:
    out = c_einsum("gij,pgj->pgi", iso.maps, probes.take(iso.perm, axis=1))
    out += iso.trans
    return out


@dataclass(frozen=True)
class GroupSpec:
    """A finite isometry group: closed element list with generator words.

    words[i] is the tuple of generator indices whose left-to-right product
    equals elements[i]; the identity has the empty word.
    """

    generators: tuple[FiberPermIsometry, ...]
    elements: tuple[FiberPermIsometry, ...]
    words: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return self.elements[0].m

    @property
    def k(self) -> int:
        return self.elements[0].k

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every element's (perm, maps, trans), stacked along a leading axis."""
        return tuple(np.stack([getattr(e, name) for e in self.elements])
                     for name in ("perm", "maps", "trans"))

    def images(self, x: SupPoint) -> np.ndarray:
        """The images g(x) of every element g, in element order, as one
        (n, m, k) array; entry for entry the same floats as g(x)."""
        if x.m != self.m or x.k != self.k:
            raise SpaceMismatchError("point shape does not match isometry")
        perm, maps, trans = self._stacked
        with np.errstate(over="ignore"):  # an overflow is refused below
            out = np.einsum("ngij,ngj->ngi", maps, x.fibers[perm]) + trans
        if not np.isfinite(out).all():
            raise ValueError("fiber coordinates must be finite")
        return out


def group_closure(
    generators: list[FiberPermIsometry] | tuple[FiberPermIsometry, ...],
    cap: int = 512,
) -> GroupSpec:
    """Close the generators under composition, breadth first.

    Raises GroupNotClosedError when more than `cap` distinct elements
    appear, so a typo in the generator data fails fast instead of looping.
    """
    if not generators:
        raise ValueError("need at least one generator")
    m, k = generators[0].m, generators[0].k
    for g in generators:
        if g.m != m or g.k != k:
            raise SpaceMismatchError("generators act on different spaces")
    probes = _probe_cloud(m, k)
    found = closure(
        FiberPermIsometry.identity(m, k),
        generators,
        compose,
        lambda iso: _signature(iso, probes),
        cap,
        _CLOSURE_TOL,
    )
    return GroupSpec(tuple(generators), tuple(found.elements), found.words)


def orbit(group: GroupSpec, x: SupPoint) -> PointCloud:
    """The images of x under every group element, in element order."""
    return PointCloud(group.images(x))


def box_image(iso: FiberPermIsometry, box: Box) -> Box:
    """Exact image of a k = 1 box under a signed-permutation isometry.

    Fiber maps must be exactly +-1 (as floats); translations are floats and
    hence dyadic, so the image bounds are computed without rounding, as
    numerators over one common denominator.
    """
    if iso.k != 1:
        raise SpaceMismatchError("exact box images are defined for k=1")
    if box.is_empty:
        return Box.empty(box.dim)
    if iso.m != box.dim:
        raise SpaceMismatchError("box dimension does not match isometry")
    signs = iso.maps[:, 0, 0].tolist()
    if any(s != 1.0 and s != -1.0 for s in signs):
        raise ValueError("fiber map entries must be exactly +1 or -1")
    t_den, (trans,) = _scaled(iso.trans[:, 0].tolist())
    den = math.lcm(box._den, t_den)
    lo, hi = _rescaled(box._lo_num, box._den, den), _rescaled(box._hi_num, box._den, den)
    trans = _rescaled(trans, t_den, den)
    lo_out, hi_out = [], []
    for s, p, t in zip(signs, iso.perm.tolist(), trans):
        if s > 0:
            lo_out.append(lo[p] + t)
            hi_out.append(hi[p] + t)
        else:
            lo_out.append(t - hi[p])
            hi_out.append(t - lo[p])
    return _box_over(box.dim, lo_out, hi_out, den)
