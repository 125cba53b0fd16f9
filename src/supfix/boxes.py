"""Exact interval-box algebra for the real sup-norm space.

Closed balls in l-infinity^n are axis-aligned boxes, and intersections of
boxes are boxes, so admissible sets (ball intersections) have an exact
finite representation.  Bounds are kept as `fractions.Fraction`: every
float is a dyadic rational, and the whole calculus below (max, min, +, -,
halving) is closed over the dyadics.  This makes contraction statements
like diam(H(M)) <= c * diam(M) provable equalities of the represented
sets, not approximations, which downstream iteration tests rely on.

The empty intersection is a distinguished marker value so that chained set
algebra never raises mid-computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import EmptyDomainError, SpaceMismatchError
from .spaces import PointCloud, SupPoint

Scalar = Union[int, float, Fraction]


def _frac(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError("box bounds must be finite")
    return Fraction(x)  # exact for ints and (finite) floats


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
        return max((b - a for a, b in zip(self.lo, self.hi)), default=Fraction(0))

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
    lo = tuple(max(x, y) for x, y in zip(a.lo, b.lo))
    hi = tuple(min(x, y) for x, y in zip(a.hi, b.hi))
    if any(x > y for x, y in zip(lo, hi)):
        return Box.empty(a.dim)
    return Box(a.dim, lo, hi)


def ball_intersection(centers: Sequence[Sequence[Scalar]], radius: Scalar) -> Box:
    """The box equal to the intersection of sup-norm balls B(c, r) over the centers."""
    if len(centers) == 0:
        raise EmptyDomainError("need at least one ball center")
    r = _frac(radius)
    cols = list(zip(*(tuple(_frac(x) for x in c) for c in centers)))
    lo = tuple(max(col) - r for col in cols)
    hi = tuple(min(col) + r for col in cols)
    if any(a > b for a, b in zip(lo, hi)):
        return Box.empty(len(cols))
    return Box(len(cols), lo, hi)


def box_A(M: Box, c: Scalar) -> Box:
    """Intersection of the balls B(x, c * diam M) over all x in M.

    Per coordinate the farthest x sits at an endpoint, so the result is
    exactly [hi_i - r, lo_i + r] with r = c * diam(M), possibly empty.
    """
    if M.is_empty:
        return Box.empty(M.dim)
    r = _frac(c) * M.diameter()
    lo = tuple(b - r for b in M.hi)
    hi = tuple(a + r for a in M.lo)
    if any(a > b for a, b in zip(lo, hi)):
        return Box.empty(M.dim)
    return Box(M.dim, lo, hi)


def box_H(M: Box, c: Scalar) -> Box:
    """The contraction step: intersect B(y, c * diam M) over all y in A(M), then with A(M).

    Any two points of the result are within c * diam(M) of each other (one of
    them lies in A(M), the other in every ball around A(M)), so the diameter
    shrinks by the factor c.  Exact over dyadic bounds.
    """
    if M.is_empty:
        return Box.empty(M.dim)
    A = box_A(M, c)
    if A.is_empty:
        return Box.empty(M.dim)
    r = _frac(c) * M.diameter()
    ring_lo = tuple(b - r for b in A.hi)
    ring_hi = tuple(a + r for a in A.lo)
    lo = tuple(max(x, y) for x, y in zip(ring_lo, A.lo))
    hi = tuple(min(x, y) for x, y in zip(ring_hi, A.hi))
    if any(a > b for a, b in zip(lo, hi)):
        return Box.empty(M.dim)
    return Box(M.dim, lo, hi)


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
    lo = [min(Fraction(float(v)) for v in flat[:, i]) for i in range(flat.shape[1])]
    hi = [max(Fraction(float(v)) for v in flat[:, i]) for i in range(flat.shape[1])]
    return Box.bounds(lo, hi)
