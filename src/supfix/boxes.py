"""Exact interval-box algebra for the real sup-norm space.

Closed balls in l-infinity^n are axis-aligned boxes, and intersections of
boxes are boxes, so admissible sets (ball intersections) have an exact
finite representation.  Bounds are exact rationals: every float is a
dyadic rational, and the whole calculus below (max, min, +, -, halving) is
closed over the dyadics.  This makes contraction statements like
diam(H(M)) <= c * diam(M) provable equalities of the represented sets, not
approximations, which downstream iteration tests rely on.

A box keeps its bounds as Python ints over one common denominator, in
lowest terms.  It is made one of two ways: by the checked constructor
`Box(dim, lo, hi)`, which `Box.empty` calls, or by `_reduced`, which puts
result numerators in lowest terms and wraps them unchecked.  The
operators put a box's ints and the constants of one call over a common
denominator (the lcm of theirs), add, subtract and compare the numerators
exactly, and hand the result numerators to `_reduced`, or return the
empty marker when some lower bound exceeds its upper one; `Fraction`
bounds are built each time a caller reads them, which no descent does.
This is the same exact arithmetic as on the Fractions themselves, for every
rational input, without the cost of normalising each intermediate value.
`box_H` makes A(M), its emptiness test and the ring in one pass over the
coordinates, scaling M's numerators by q for the constant c = p / q, and
`box_center` divides each lo + hi by 2 den as ints: int true division is
correctly rounded, so it gives the float of the Fraction midpoint.  Those
floats are finite (a quotient too large for a float raises OverflowError
instead), so the center is wrapped without the point constructor's copy
and checks (`SupPoint._trusted`).

The empty intersection is a distinguished marker value so that chained set
algebra never raises mid-computation.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import EmptyDomainError, SpaceMismatchError
from .spaces import SupPoint

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


def _reduced(dim: int, lo: Sequence[int], hi: Sequence[int], den: int) -> "Box":
    """The box with bounds lo[i] / den and hi[i] / den, known to satisfy
    lo[i] <= hi[i], put in lowest terms and made without the constructor's
    checks: the one unchecked way a box is made."""
    g = math.gcd(den, *lo, *hi)
    if g > 1:
        den, lo, hi = den // g, [a // g for a in lo], [b // g for b in hi]
    box = object.__new__(Box)
    box._dim, box._den, box._lo_num, box._hi_num = dim, den, tuple(lo), tuple(hi)
    return box


class Box:
    """A coordinate box, or the empty-set marker (lo is None).

    Invariant: lo[i] <= hi[i] for every coordinate of a nonempty box.

    A nonempty box is kept as integer numerators over its least common
    denominator: bound i is lo_num[i] / den and hi_num[i] / den, with den
    the lcm of the bounds' lowest-terms denominators.  The operators below
    work on those integers; the `Fraction` bounds `lo` and `hi` are built
    each time they are read.  Two boxes are equal exactly when they
    are the same set, which in lowest terms is equality of the integers.
    """

    __slots__ = ("_dim", "_den", "_lo_num", "_hi_num")

    def __init__(self, dim: int, lo: Sequence[Scalar] | None, hi: Sequence[Scalar] | None):
        if (lo is None) != (hi is None):
            raise ValueError("lo and hi must both be set or both be None")
        self._dim, self._den, self._lo_num, self._hi_num = dim, 1, None, None
        if lo is None:
            return
        lo_f, hi_f = tuple(_frac(x) for x in lo), tuple(_frac(x) for x in hi)
        if len(lo_f) != dim or len(hi_f) != dim:
            raise SpaceMismatchError("bound length does not match dimension")
        for a, b in zip(lo_f, hi_f):
            if a > b:
                raise ValueError(f"inverted interval [{a}, {b}]; use Box.empty for empty sets")
        den, (lo_num, hi_num) = _scaled(lo_f, hi_f)  # lcm of lowest terms: already reduced
        self._den, self._lo_num, self._hi_num = den, tuple(lo_num), tuple(hi_num)

    @classmethod
    def empty(cls, dim: int) -> "Box":
        return cls(dim, None, None)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def lo(self) -> tuple[Fraction, ...] | None:
        return None if self._lo_num is None else tuple(Fraction(a, self._den) for a in self._lo_num)

    @property
    def hi(self) -> tuple[Fraction, ...] | None:
        return None if self._hi_num is None else tuple(Fraction(b, self._den) for b in self._hi_num)

    @property
    def is_empty(self) -> bool:
        return self._lo_num is None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._dim, self._den, self._lo_num, self._hi_num) == (
            other._dim, other._den, other._lo_num, other._hi_num)

    def __hash__(self):
        return hash((self._dim, self._den, self._lo_num, self._hi_num))

    def __repr__(self):
        return f"Box(dim={self._dim!r}, lo={self.lo!r}, hi={self.hi!r})"

    def _width(self) -> int:
        """The sup-norm diameter times den."""
        return max(map(operator.sub, self._hi_num, self._lo_num), default=0)

    def diameter(self) -> Fraction:
        """Sup-norm diameter, exact.  Zero for the empty marker."""
        if self.is_empty:
            return Fraction(0)
        return Fraction(self._width(), self._den)

    def center_exact(self) -> tuple[Fraction, ...]:
        if self.is_empty:
            raise EmptyDomainError("empty box has no center")
        den = 2 * self._den
        return tuple(Fraction(a + b, den) for a, b in zip(self._lo_num, self._hi_num))


def _rescaled(nums: Sequence[int], den: int, to: int) -> list[int]:
    """Numerators over den as numerators over `to`, a multiple of den."""
    f = to // den
    return [a * f for a in nums]


def ball_intersection(top: Sequence[int], bottom: Sequence[int], radius: int, den: int) -> Box:
    """The box equal to the intersection of sup-norm balls B(c, r), with
    r = radius / den, over centers c whose largest coordinate i is
    top[i] / den and whose smallest is bottom[i] / den.

    Per coordinate the intersection is [max c_i - r, min c_i + r], so it
    depends on the centers through their column extremes alone, given as
    Python ints (`iterate.exact_orbit_diameter` makes them).
    """
    if len(top) != len(bottom):
        raise SpaceMismatchError("column maxima and minima differ in length")
    lo, hi = [t - radius for t in top], [b + radius for b in bottom]
    if any(a > b for a, b in zip(lo, hi)):
        return Box.empty(len(top))
    return _reduced(len(top), lo, hi, den)


def box_H(M: Box, c: Scalar) -> Box:
    """The contraction step: intersect B(y, c * diam M) over all y in A(M), then with A(M).

    Any two points of the result are within c * diam(M) of each other (one of
    them lies in A(M), the other in every ball around A(M)), so the diameter
    shrinks by the factor c.  Exact over rational bounds.

    One pass over the coordinates: with A(M)_i = [hi_i - r, lo_i + r], the
    ring bounds are A.hi_i - r = lo_i and A.lo_i + r = hi_i, so the result is
    [max(lo_i, hi_i - r), min(hi_i, lo_i + r)].  A(M) is empty exactly when
    some width hi_i - lo_i exceeds 2r, that is when the largest does; a
    nonempty A(M) gives a nonempty result.
    """
    if M.is_empty:
        return Box.empty(M.dim)
    p, q = _frac(c).as_integer_ratio()
    width = M._width()
    r = p * width  # c * diam(M) over den = M._den * q
    if q * width > 2 * r:
        return Box.empty(M.dim)
    lo_out, hi_out = [], []
    for a, b in zip(M._lo_num, M._hi_num):
        a, b = a * q, b * q
        x, y = b - r, a + r
        lo_out.append(a if a >= x else x)
        hi_out.append(b if b <= y else y)
    return _reduced(M.dim, lo_out, hi_out, M._den * q)


def box_center(M: Box) -> SupPoint:
    """Per-coordinate midpoint, the canonical relative center of a box."""
    if M.is_empty:
        raise EmptyDomainError("empty box has no center")
    if M.dim == 0:
        raise SpaceMismatchError("a box of no coordinates has no center point")
    # int / int is correctly rounded, as is float() of the Fraction (a + b) / den,
    # and finite: a quotient past the largest float raises OverflowError
    den = 2 * M._den
    mid = np.array([(a + b) / den for a, b in zip(M._lo_num, M._hi_num)])
    return SupPoint._trusted(mid.reshape(M.dim, 1))

