"""Exact interval-box algebra for the real sup-norm space.

Closed balls in l-infinity^n are axis-aligned boxes, and intersections of
boxes are boxes, so admissible sets (ball intersections) have an exact
finite representation.  Bounds are kept as `fractions.Fraction`: every
float is a dyadic rational, and the whole calculus below (max, min, +, -,
halving) is closed over the dyadics.  This makes contraction statements
like diam(H(M)) <= c * diam(M) provable equalities of the represented
sets, not approximations, which downstream iteration tests rely on.

The operators below do their arithmetic on Python ints: the bounds and the
constants of one call are put over a common denominator (the lcm of theirs),
the numerators are added, subtracted and compared exactly, and the results
go back to `Fraction` only when the result box is built.  This is the same
exact arithmetic as on the Fractions themselves, for every rational input,
without the cost of normalising each intermediate value.

The empty intersection is a distinguished marker value so that chained set
algebra never raises mid-computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import EmptyDomainError, SpaceMismatchError
from .spaces import PointCloud, SupPoint

Scalar = Union[int, float, Fraction]


def _frac(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError("box bounds must be finite")
    return Fraction(x)  # exact for ints and (finite) floats


def _scaled(*seqs: Sequence[Scalar]) -> tuple[int, list[list[int]]]:
    """(den, nums): every value of seqs is nums[j][i] / den, with den the lcm
    of their denominators.  Values are Fractions, ints or finite floats."""
    ratios = [[x.as_integer_ratio() for x in seq] for seq in seqs]
    den = math.lcm(*(d for rs in ratios for _, d in rs))
    return den, [[n * (den // d) for n, d in rs] for rs in ratios]


def _box_over(dim: int, lo: Sequence[int], hi: Sequence[int], den: int) -> "Box":
    """The box with bounds lo[i] / den and hi[i] / den, or the empty marker
    when some lo[i] > hi[i]."""
    if any(a > b for a, b in zip(lo, hi)):
        return Box.empty(dim)
    return Box(dim, tuple(Fraction(a, den) for a in lo), tuple(Fraction(b, den) for b in hi))


@dataclass(frozen=True)
class Box:
    """A coordinate box, or the empty-set marker (lo is None).

    Invariant: lo[i] <= hi[i] for every coordinate of a nonempty box.
    """

    dim: int
    lo: tuple[Fraction, ...] | None
    hi: tuple[Fraction, ...] | None

    def __post_init__(self):
        if (self.lo is None) != (self.hi is None):
            raise ValueError("lo and hi must both be set or both be None")
        if self.lo is not None:
            if len(self.lo) != self.dim or len(self.hi) != self.dim:
                raise SpaceMismatchError("bound length does not match dimension")
            for a, b in zip(self.lo, self.hi):
                if a > b:
                    raise ValueError(f"inverted interval [{a}, {b}]; use Box.empty for empty sets")

    @classmethod
    def bounds(cls, lo: Sequence[Scalar], hi: Sequence[Scalar]) -> "Box":
        lo_t = tuple(_frac(x) for x in lo)
        hi_t = tuple(_frac(x) for x in hi)
        if len(lo_t) != len(hi_t):
            raise SpaceMismatchError("lo and hi have different lengths")
        return cls(len(lo_t), lo_t, hi_t)

    @classmethod
    def point(cls, p: Sequence[Scalar]) -> "Box":
        t = tuple(_frac(x) for x in p)
        return cls(len(t), t, t)

    @classmethod
    def empty(cls, dim: int) -> "Box":
        return cls(dim, None, None)

    @property
    def is_empty(self) -> bool:
        return self.lo is None

    def diameter(self) -> Fraction:
        """Sup-norm diameter, exact.  Zero for the empty marker."""
        if self.is_empty:
            return Fraction(0)
        den, (lo, hi) = _scaled(self.lo, self.hi)
        return Fraction(max((b - a for a, b in zip(lo, hi)), default=0), den)

    def center_exact(self) -> tuple[Fraction, ...]:
        if self.is_empty:
            raise EmptyDomainError("empty box has no center")
        return tuple((a + b) / 2 for a, b in zip(self.lo, self.hi))

    def contains(self, p: Sequence[Scalar], tol: Scalar = 0) -> bool:
        if self.is_empty:
            return False
        t = _frac(tol)
        return all(
            a - t <= _frac(x) <= b + t for x, a, b in zip(p, self.lo, self.hi)
        )


def intersect(a: Box, b: Box) -> Box:
    if a.dim != b.dim:
        raise SpaceMismatchError("cannot intersect boxes of different dimensions")
    if a.is_empty or b.is_empty:
        return Box.empty(a.dim)
    den, (alo, ahi, blo, bhi) = _scaled(a.lo, a.hi, b.lo, b.hi)
    lo = [max(x, y) for x, y in zip(alo, blo)]
    hi = [min(x, y) for x, y in zip(ahi, bhi)]
    return _box_over(a.dim, lo, hi, den)


def ball_intersection(centers: Sequence[Sequence[Scalar]], radius: Scalar) -> Box:
    """The box equal to the intersection of sup-norm balls B(c, r) over the centers.

    Per coordinate the intersection is [max c_i - r, min c_i + r]; the
    column extremes are taken on the given values (exact for floats), so
    only they are converted.
    """
    if len(centers) == 0:
        raise EmptyDomainError("need at least one ball center")
    pts = np.asarray(centers)
    if pts.ndim != 2:
        raise SpaceMismatchError("ball centers must form an (N, dim) array")
    if pts.dtype == object:  # Fractions or big ints: lift every entry, which also checks it
        pts = np.vectorize(_frac, otypes=[object])(pts)
    # a non-finite float is the extreme of its column, so _frac rejects it here
    top = [_frac(x) for x in pts.max(axis=0).tolist()]
    bottom = [_frac(x) for x in pts.min(axis=0).tolist()]
    den, (top, bottom, (r,)) = _scaled(top, bottom, (_frac(radius),))
    return _box_over(pts.shape[1], [t - r for t in top], [b + r for b in bottom], den)


def _contract(M: Box, c: Scalar) -> tuple[int, list[int], list[int], int]:
    """(den, lo, hi, r): M's bounds and r = c * diam(M) as numerators over one
    denominator.  With D the lcm of M's denominators and c = p / q, den is
    D * q: the diameter is delta / D for an integer delta, so r = p * delta / den."""
    p, q = _frac(c).as_integer_ratio()
    den, (lo, hi) = _scaled(M.lo, M.hi)
    delta = max((b - a for a, b in zip(lo, hi)), default=0)
    return den * q, [a * q for a in lo], [b * q for b in hi], p * delta


def box_A(M: Box, c: Scalar) -> Box:
    """Intersection of the balls B(x, c * diam M) over all x in M.

    Per coordinate the farthest x sits at an endpoint, so the result is
    exactly [hi_i - r, lo_i + r] with r = c * diam(M), possibly empty.
    """
    if M.is_empty:
        return Box.empty(M.dim)
    den, lo, hi, r = _contract(M, c)
    return _box_over(M.dim, [b - r for b in hi], [a + r for a in lo], den)


def box_H(M: Box, c: Scalar) -> Box:
    """The contraction step: intersect B(y, c * diam M) over all y in A(M), then with A(M).

    Any two points of the result are within c * diam(M) of each other (one of
    them lies in A(M), the other in every ball around A(M)), so the diameter
    shrinks by the factor c.  Exact over rational bounds.
    """
    if M.is_empty:
        return Box.empty(M.dim)
    den, lo, hi, r = _contract(M, c)
    a_lo = [b - r for b in hi]
    a_hi = [a + r for a in lo]
    if any(a > b for a, b in zip(a_lo, a_hi)):
        return Box.empty(M.dim)
    # ring = [A.hi - r, A.lo + r], then intersected with A itself
    lo = [max(b - r, a) for a, b in zip(a_lo, a_hi)]
    hi = [min(a + r, b) for a, b in zip(a_lo, a_hi)]
    return _box_over(M.dim, lo, hi, den)


def box_center(M: Box) -> SupPoint:
    """Per-coordinate midpoint, the canonical relative center of a box."""
    if M.is_empty:
        raise EmptyDomainError("empty box has no center")
    return SupPoint.of([float(x) for x in M.center_exact()])


def bounding_box(cloud: PointCloud) -> Box:
    """Smallest box containing a box-space (k = 1) cloud."""
    if len(cloud) == 0:
        raise EmptyDomainError("empty cloud has no bounding box")
    pts = cloud.stack()
    if pts.shape[2] != 1:
        raise SpaceMismatchError("bounding boxes are defined for k=1 clouds")
    flat = pts[:, :, 0]
    return Box.bounds(flat.min(axis=0).tolist(), flat.max(axis=0).tolist())
