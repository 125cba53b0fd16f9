"""Surjective affine isometries of the sup-norm model space.

Every map handled here permutes the index set, applies an orthogonal map
in each fiber, and translates:

    (phi x)_g = maps[g] @ x[perm[g]] + trans[g]

This family is closed under composition and inversion, which is all the
group machinery needs.  Finite groups are produced by the breadth-first
closure of `groups.closure` over right multiplication by the generators.
An element's signature is its image of a fixed probe cloud, so no
canonical form of the matrix data is required; a product whose signature
is within `tol` of a known one in every entry (max |diff| <= tol) is a
duplicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boxes import Box, _box_over, _scaled
from .errors import SpaceMismatchError
from .groups import closure, word_labels
from .spaces import PointCloud, SupPoint

_ORTHO_TOL = 1e-8


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
        k = trans.shape[1]
        gram = np.einsum("gij,gil->gjl", maps, maps)
        if not np.allclose(gram, np.eye(k), atol=_ORTHO_TOL):
            raise ValueError("fiber maps must be orthogonal")
        for name, arr in (("perm", perm), ("maps", maps), ("trans", trans)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def _trusted(cls, perm: np.ndarray, maps: np.ndarray, trans: np.ndarray) -> "FiberPermIsometry":
        """Wrap arrays that are valid by construction, skipping the checks.

        For products and inverses of checked maps: the permutations compose
        to a permutation and the orthogonal maps to orthogonal maps.
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
        return cls(np.arange(m), np.broadcast_to(np.eye(k), (m, k, k)).copy(), np.zeros((m, k)))

    def __call__(self, x: SupPoint) -> SupPoint:
        if x.m != self.m or x.k != self.k:
            raise SpaceMismatchError("point shape does not match isometry")
        out = np.einsum("gij,gj->gi", self.maps, x.fibers[self.perm]) + self.trans
        return SupPoint(out)


def compose(a: FiberPermIsometry, b: FiberPermIsometry) -> FiberPermIsometry:
    """The isometry x -> a(b(x))."""
    if a.m != b.m or a.k != b.k:
        raise SpaceMismatchError("cannot compose isometries of different spaces")
    perm = b.perm[a.perm]
    maps = np.einsum("gij,gjl->gil", a.maps, b.maps[a.perm])
    trans = np.einsum("gij,gj->gi", a.maps, b.trans[a.perm]) + a.trans
    return FiberPermIsometry._trusted(perm, maps, trans)


def invert(a: FiberPermIsometry) -> FiberPermIsometry:
    q = np.argsort(a.perm)  # q[g] is the index sent to g
    maps = np.swapaxes(a.maps[q], 1, 2)
    trans = -np.einsum("gij,gj->gi", maps, a.trans[q])
    return FiberPermIsometry._trusted(q, maps, trans)


def _probe_cloud(m: int, k: int) -> np.ndarray:
    """Fixed probe points whose images identify an isometry: the origin,
    one-hot points, and one generic point to split symmetric cases."""
    probes = [np.zeros((m, k))]
    one = np.zeros((m, k))
    one[0, 0] = 1.0
    probes.append(one)
    if m > 1 or k > 1:
        rng = np.random.default_rng(20240)
        probes.append(rng.standard_normal((m, k)))
    return np.stack(probes)


def _signature(iso: FiberPermIsometry, probes: np.ndarray) -> np.ndarray:
    out = np.einsum("gij,pgj->pgi", iso.maps, probes[:, iso.perm, :]) + iso.trans
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
    tol: float = 1e-10

    @property
    def m(self) -> int:
        return self.elements[0].m

    @property
    def k(self) -> int:
        return self.elements[0].k

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def labels(self) -> tuple[str, ...]:
        return word_labels(self.words)

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
    tol: float = 1e-10,
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
        tol,
    )
    return GroupSpec(tuple(generators), tuple(found.elements), found.words, tol)


def orbit(group: GroupSpec, x: SupPoint) -> PointCloud:
    """The images of x under every group element, in element order."""
    return PointCloud.from_array(group.images(x))


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
    den, (lo, hi, trans) = _scaled(box.lo, box.hi, iso.trans[:, 0].tolist())
    lo_out, hi_out = [], []
    for s, p, t in zip(signs, iso.perm.tolist(), trans):
        if s > 0:
            lo_out.append(lo[p] + t)
            hi_out.append(hi[p] + t)
        else:
            lo_out.append(t - hi[p])
            hi_out.append(t - lo[p])
    return _box_over(box.dim, lo_out, hi_out, den)
