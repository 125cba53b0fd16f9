"""Box algebra tests.

The closed forms for the ball-intersection operators are checked against
a dense-grid membership oracle in low dimension before anything else
relies on them, and the contraction property is asserted exactly over
Fraction bounds, with no tolerance anywhere.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supfix.boxes import Box, ball_intersection, box_H, box_center
from supfix.errors import EmptyDomainError, SpaceMismatchError
from supfix.spaces import PointCloud

HALF = Fraction(1, 2)


def corners(box: Box):
    return itertools.product(*[(float(a), float(b)) for a, b in zip(box.lo, box.hi)])


def sup_dist_to_box(y, box: Box) -> float:
    """Exact sup distance from y to the farthest point of the box.

    Per coordinate the farthest point sits at an endpoint, so scanning the
    corners is exhaustive.
    """
    return max(max(abs(yi - ci) for yi, ci in zip(y, corner)) for corner in corners(box))


def inside(box: Box, y, tol=0) -> bool:
    """Whether y lies in the box grown by tol in every coordinate, each
    bound compared as a Fraction."""
    t = Fraction(tol)
    return not box.is_empty and all(
        a - t <= Fraction(x) <= b + t for x, a, b in zip(y, box.lo, box.hi))


def grid_points(lo, hi, steps):
    axes = [np.linspace(a, b, steps) for a, b in zip(lo, hi)]
    return itertools.product(*axes)


def random_box(rng, dim) -> Box:
    lo = rng.uniform(-3, 3, size=dim)
    hi = lo + rng.uniform(0.1, 4, size=dim)
    return Box(dim, lo, hi)


class TestBoxBasics:
    def test_bounds_and_diameter(self):
        b = Box(2, [0, -1], [2, 1])
        assert b.diameter() == Fraction(2)

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            Box(1, [1.0], [0.0])

    def test_empty_marker(self):
        e = Box.empty(3)
        assert e.is_empty
        assert e.diameter() == 0
        with pytest.raises(EmptyDomainError):
            box_center(e)

    def test_point_box(self):
        b = Box(2, [1.5, -0.5], [1.5, -0.5])
        assert b.diameter() == 0
        assert b.lo == b.hi == (Fraction(3, 2), Fraction(-1, 2))

    def test_float_bounds_are_exact(self):
        # floats are dyadic rationals; lifting must not introduce error
        b = Box(1, [0.1], [0.3])
        assert b.lo[0] == Fraction(0.1)
        assert float(b.lo[0]) == 0.1


class TestBallIntersection:
    def test_grid_oracle_2d(self, rng):
        """Membership in the ball intersection, point by point on a grid."""
        for _ in range(10):
            nums = rng.integers(-64, 65, size=(4, 2))
            r = int(rng.integers(51, 129))
            got = ball_intersection(*extremes(nums), r, 64)
            centers, radius = nums / 64, r / 64
            for y in grid_points([-3.2, -3.2], [3.2, 3.2], 17):
                within = all(max(abs(y[0] - c[0]), abs(y[1] - c[1])) <= radius for c in centers)
                assert inside(got, y, tol=1e-12) == within

    def test_empty_when_radius_too_small(self):
        """Centers 0 and 10 over den 1 and 4."""
        assert ball_intersection([10], [0], 1, 1).is_empty
        assert ball_intersection([10], [0], 4, 4).is_empty
        assert ball_intersection([10], [0], 5, 4) == Box(1, [Fraction(5, 4)], [Fraction(5, 4)])

    def test_single_center_is_ball(self):
        b = ball_intersection([2, 4], [2, 4], 1, 2)
        assert b.lo == (HALF, Fraction(3, 2)) and b.hi == (Fraction(3, 2), Fraction(5, 2))

    def test_extremes_of_different_lengths_raise(self):
        with pytest.raises(SpaceMismatchError):
            ball_intersection([1, 2], [1], 0, 1)


class TestBoxA:
    def test_dense_grid_oracle_2d(self, rng):
        """The reference A(M) against brute force: y is in A(M) iff every
        point of M is within c * diam of y; corner scanning makes the check
        exact.  The box_H checks below read A(M) from this reference."""
        for _ in range(10):
            m = random_box(rng, 2)
            r = float(HALF * m.diameter())
            got = ref_box_A(m, HALF)
            span = 1.2 * float(m.diameter())
            lo = [float(x) - span for x in m.lo]
            hi = [float(x) + span for x in m.hi]
            for y in grid_points(lo, hi, 13):
                within = sup_dist_to_box(y, m) <= r + 1e-12
                assert inside(got, y, tol=1e-9) == within, (y, m)


class TestBoxH:
    def test_equals_m_intersect_a(self, rng):
        """H(M) coincides with the intersection of M and A(M), exactly."""
        for _ in range(100):
            m = random_box(rng, 4)
            assert box_H(m, HALF) == ref_intersect(m, ref_box_A(m, HALF))

    def test_dense_grid_oracle_2d(self, rng):
        for _ in range(8):
            m = random_box(rng, 2)
            r = float(HALF * m.diameter())
            a = ref_box_A(m, HALF)
            got = box_H(m, HALF)
            span = 0.2 + float(m.diameter())
            lo = [float(x) - span for x in m.lo]
            hi = [float(x) + span for x in m.hi]
            for y in grid_points(lo, hi, 13):
                within = inside(a, y, tol=1e-12) and sup_dist_to_box(y, a) <= r + 1e-12
                assert inside(got, y, tol=1e-9) == within

    def test_contraction_exact_no_tolerance(self, rng):
        """diam H(M) <= c diam M as a Fraction inequality, over random dyadic boxes."""
        for _ in range(300):
            dim = int(rng.integers(1, 9))
            m = random_box(rng, dim)
            h = box_H(m, HALF)
            assert not h.is_empty
            assert h.diameter() <= HALF * m.diameter()

    def test_contraction_other_constants(self, rng):
        for c in (Fraction(3, 5), Fraction(7, 8)):
            for _ in range(50):
                m = random_box(rng, 3)
                h = box_H(m, c)
                assert h.diameter() <= c * m.diameter()

    def test_point_box_fixed(self):
        p = Box(2, [1.0, 2.0], [1.0, 2.0])
        assert box_H(p, HALF) == p


class TestBoxCenter:
    def test_box_center_is_midpoint(self):
        c = box_center(Box(2, [0.0, -2.0], [1.0, 0.0]))
        assert c.fibers[:, 0].tolist() == [0.5, -1.0]
        assert c.fibers.shape == (2, 1) and not c.fibers.flags.writeable

    def test_a_box_of_no_coordinates_has_no_center_point(self):
        """As SupPoint refuses a point of no fibers."""
        with pytest.raises(SpaceMismatchError):
            box_center(Box(0, [], []))

    def test_a_center_past_the_largest_float_raises(self):
        """Its midpoint has no float, so no non-finite point is wrapped."""
        huge = Fraction(2) ** 1100
        with pytest.raises(OverflowError):
            box_center(Box(1, [huge], [huge]))


# -- reference forms ------------------------------------------------------------
# The operators once did every step in Fraction arithmetic.  These loops are
# those forms; the integer arithmetic at a common denominator must give the
# same Fractions on every input.  `ref_intersect`, `ref_box_A` and
# `ref_bounding_box` have no package counterpart: they state H(M) as M
# intersected with A(M), and the box-space center as a bounding box's midpoint.


def ref_intersect(a: Box, b: Box) -> Box:
    if a.is_empty or b.is_empty:
        return Box.empty(a.dim)
    lo = tuple(max(x, y) for x, y in zip(a.lo, b.lo))
    hi = tuple(min(x, y) for x, y in zip(a.hi, b.hi))
    if any(x > y for x, y in zip(lo, hi)):
        return Box.empty(a.dim)
    return Box(a.dim, lo, hi)


def numerators(points) -> tuple[int, list[list[int]]]:
    """(den, nums): the points as Python-int numerators over the lcm of
    their coordinates' lowest-terms denominators."""
    fracs = [[Fraction(x) for x in p] for p in points]
    den = math.lcm(*(x.denominator for p in fracs for x in p))
    return den, [[int(x * den) for x in p] for p in fracs]


def extremes(nums) -> tuple[list[int], list[int]]:
    """The column maxima and minima of integer rows, as Python ints: what
    `exact_orbit_diameter` hands to `ball_intersection`."""
    cols = [[int(v) for v in col] for col in zip(*nums)]
    return [max(col) for col in cols], [min(col) for col in cols]


def ref_ball_intersection(centers, radius) -> Box:
    r = Fraction(radius)
    cols = list(zip(*(tuple(Fraction(x) for x in c) for c in centers)))
    lo = tuple(max(col) - r for col in cols)
    hi = tuple(min(col) + r for col in cols)
    if any(a > b for a, b in zip(lo, hi)):
        return Box.empty(len(cols))
    return Box(len(cols), lo, hi)


def ref_box_A(M: Box, c) -> Box:
    if M.is_empty:
        return Box.empty(M.dim)
    r = Fraction(c) * M.diameter()
    lo = tuple(b - r for b in M.hi)
    hi = tuple(a + r for a in M.lo)
    if any(a > b for a, b in zip(lo, hi)):
        return Box.empty(M.dim)
    return Box(M.dim, lo, hi)


def ref_box_H(M: Box, c) -> Box:
    if M.is_empty:
        return Box.empty(M.dim)
    A = ref_box_A(M, c)
    if A.is_empty:
        return Box.empty(M.dim)
    r = Fraction(c) * M.diameter()
    lo = tuple(max(b - r, y) for b, y in zip(A.hi, A.lo))
    hi = tuple(min(a + r, y) for a, y in zip(A.lo, A.hi))
    if any(a > b for a, b in zip(lo, hi)):
        return Box.empty(M.dim)
    return Box(M.dim, lo, hi)


def ref_bounding_box(cloud: PointCloud) -> Box:
    flat = cloud.points[:, :, 0]
    lo = [min(Fraction(float(v)) for v in flat[:, i]) for i in range(flat.shape[1])]
    hi = [max(Fraction(float(v)) for v in flat[:, i]) for i in range(flat.shape[1])]
    return Box(len(lo), lo, hi)


def assert_same_box(got: Box, want: Box):
    """Equal boxes with every bound a Fraction of the same lowest terms."""
    assert got == want
    if not want.is_empty:
        for x, y in zip(got.lo + got.hi, want.lo + want.hi):
            assert type(x) is Fraction
            assert x.as_integer_ratio() == y.as_integer_ratio()


SUBNORMAL = 5e-324


def thirds_box(rng, dim) -> Box:
    lo = [Fraction(int(v), 3) for v in rng.integers(-30, 30, size=dim)]
    return Box(dim, lo, [a + Fraction(int(w), 3) for a, w in zip(lo, rng.integers(0, 20, size=dim))])


def mixed_box(rng, dim) -> Box:
    """Thirds in some coordinates, dyadic floats at a spread of magnitudes in others."""
    lo, hi = [], []
    for i in range(dim):
        if i % 2:
            a = Fraction(int(rng.integers(-30, 30)), 3)
            b = a + Fraction(int(rng.integers(0, 20)), 3 * 2 ** int(rng.integers(0, 5)))
        else:
            scale = 10.0 ** int(rng.integers(-12, 13))
            a = Fraction(float(rng.standard_normal() * scale))
            b = a + Fraction(float(abs(rng.standard_normal()) * scale))
        lo.append(a)
        hi.append(b)
    return Box(dim, lo, hi)


def subnormal_box(rng, dim) -> Box:
    lo = rng.integers(-50, 50, size=dim)
    return Box(dim, [float(v) * SUBNORMAL for v in lo],
               [float(v + w) * SUBNORMAL for v, w in zip(lo, rng.integers(0, 9, size=dim))])


BOX_KINDS = {"dyadic": random_box, "thirds": thirds_box, "mixed": mixed_box,
             "subnormal": subnormal_box}
CONSTANTS = (Fraction(1, 2), Fraction(2, 3), Fraction(1, 3), 0.5)


class TestAgainstFractionForms:
    @pytest.mark.parametrize("kind", BOX_KINDS)
    @pytest.mark.parametrize("c", CONSTANTS)
    def test_box_H(self, kind, c, rng):
        empties = 0
        for _ in range(40):
            m = BOX_KINDS[kind](rng, int(rng.integers(1, 7)))
            h = box_H(m, c)
            assert_same_box(h, ref_box_H(m, c))
            empties += h.is_empty
        # c < 1/2 empties A(M) of every box with a nonzero diameter
        assert (empties > 0) == (c < HALF)

    @pytest.mark.parametrize("kind", BOX_KINDS)
    def test_box_H_iterated(self, kind, rng):
        """Descent chains reach deep denominators (2^-60 and below)."""
        for _ in range(5):
            m = BOX_KINDS[kind](rng, 4)
            for _ in range(60):
                want = ref_box_H(m, HALF)
                m = box_H(m, HALF)
                assert_same_box(m, want)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12, SUBNORMAL, 1e-310])
    def test_ball_intersection(self, scale, rng):
        """Float centers as their numerators over the lcm of their
        denominators, as the exact orbit gives them, at every float scale."""
        empties = 0
        for _ in range(40):
            n, dim = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            centers = rng.standard_normal((n, dim)) * scale
            if scale < 1e-300:  # subnormal: integer multiples of the scale
                centers = rng.integers(-40, 40, size=(n, dim)) * scale
            den, nums = numerators(centers.tolist())
            spread = max(max(col) - min(col) for col in zip(*nums))
            for radius in (spread * int(rng.integers(0, 65)) // 32, spread // 2):
                got = ball_intersection(*extremes(nums), radius, den)
                assert_same_box(got, ref_ball_intersection(centers, Fraction(radius, den)))
                empties += got.is_empty
        assert empties > 0

    def test_ball_intersection_of_integer_centers(self, rng):
        """The extremes of integer numerators of any dtype."""
        for dtype in (np.int64, np.uint8, np.int32):
            centers = rng.integers(0, 100, size=(5, 3)).astype(dtype)
            points = [[Fraction(int(v), 4) for v in row] for row in centers]
            for radius in (160, 162, 199):
                assert_same_box(ball_intersection(*extremes(centers), radius, 4),
                                ref_ball_intersection(points, Fraction(radius, 4)))

    @pytest.mark.parametrize("den", [1, 3, 2**16, 2**1074])
    def test_ball_intersection_of_numerators_over_a_denominator(self, den, rng):
        """Integer columns, int64 or Python ints past it, are the points nums / den."""
        empties = 0
        for _ in range(30):
            nums = rng.integers(-2**40, 2**40, size=(int(rng.integers(1, 7)), 4))
            for centers in (nums, np.array([[int(v) * 2**80 for v in row] for row in nums],
                                           dtype=object)):
                points = [[Fraction(int(v), den) for v in row] for row in centers]
                for radius in (int(rng.integers(0, 2**42)), int(rng.integers(0, 2**42)) << 80):
                    got = ball_intersection(*extremes(centers), radius, den)
                    assert_same_box(got, ref_ball_intersection(points, Fraction(radius, den)))
                    empties += got.is_empty
        assert empties > 0


# -- numerator boxes against the Fraction forms, property based -----------------
# A box keeps integer numerators over its least common denominator and builds
# Fraction bounds only when read; every operator must still give the box the
# Fraction forms above give, on any mix of dyadic, non-dyadic and subnormal
# bounds.

PROPERTY_SETTINGS = settings(max_examples=100, derandomize=True, deadline=None, database=None)

FLOAT_BOUND = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False,
                        allow_infinity=False, allow_subnormal=True)
BOUND_KINDS = {
    "dyadic": FLOAT_BOUND.map(Fraction),
    "non-dyadic": st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9),
    "subnormal": st.integers(-2**40, 2**40).map(lambda n: Fraction(n * SUBNORMAL)),
}
BOUND = st.one_of(*BOUND_KINDS.values())


@st.composite
def boxes(draw, dim=None):
    """A nonempty box whose coordinates each draw their own kind of bound."""
    dim = draw(st.integers(1, 5)) if dim is None else dim
    lo = [draw(BOUND) for _ in range(dim)]
    return Box(dim, tuple(lo), tuple(a + abs(draw(BOUND)) for a in lo))


@st.composite
def box_pairs(draw):
    dim = draw(st.integers(1, 5))
    return draw(boxes(dim)), draw(boxes(dim))


class TestNumeratorBoxes:
    @PROPERTY_SETTINGS
    @given(boxes(), st.sampled_from(CONSTANTS))
    def test_box_H(self, m, c):
        assert_same_box(box_H(m, c), ref_box_H(m, c))

    @PROPERTY_SETTINGS
    @given(boxes())
    def test_box_H_chain(self, m):
        for _ in range(8):
            want = ref_box_H(m, HALF)
            m = box_H(m, HALF)
            assert_same_box(m, want)

    @PROPERTY_SETTINGS
    @given(boxes())
    def test_diameter_and_center(self, m):
        diam = m.diameter()
        assert type(diam) is Fraction
        assert diam == max(b - a for a, b in zip(m.lo, m.hi))
        assert m.center_exact() == tuple((a + b) / 2 for a, b in zip(m.lo, m.hi))

    @PROPERTY_SETTINGS
    @given(box_pairs())
    def test_equal_exactly_when_the_same_set(self, pair):
        a, b = pair
        same = a.lo == b.lo and a.hi == b.hi
        assert (a == b) == same and (a != b) == (not same)
        rebuilt = Box(a.dim, list(a.lo), list(a.hi))
        assert rebuilt == a and hash(rebuilt) == hash(a)
        assert_same_box(rebuilt, a)


def center_floats(m: Box) -> bytes:
    """The bytes of float(c) for each Fraction midpoint c of m."""
    return np.array([float(c) for c in m.center_exact()]).tobytes()


ULP = 2.0 ** -52  # the float spacing in [1, 2)


class TestCenterRounding:
    """box_center divides ints; its floats must be the Fractions' rounding."""

    @PROPERTY_SETTINGS
    @given(boxes())
    def test_floats_of_the_fraction_midpoints(self, m):
        assert box_center(m).fibers[:, 0].tobytes() == center_floats(m)

    @pytest.mark.parametrize("lo, hi, want", [
        (1.0, 1.0 + ULP, 1.0),  # halfway: ties to the even neighbour below
        (1.0 + ULP, 1.0 + 2 * ULP, 1.0 + 2 * ULP),  # and to the even one above
        (-1.0 - ULP, -1.0, -1.0),
        (0.0, SUBNORMAL, 0.0),  # 2^-1075 lies halfway between 0 and 2^-1074
        (SUBNORMAL, 2 * SUBNORMAL, 2 * SUBNORMAL),
        (-3 * SUBNORMAL, 2 * SUBNORMAL, -0.0),  # -2^-1075: ties to -0.0
        (7 * SUBNORMAL, 10 * SUBNORMAL, 8 * SUBNORMAL),
    ])
    def test_ties_to_even(self, lo, hi, want):
        m = Box(1, [lo], [hi])
        got = box_center(m).fibers[0, 0]
        assert got.hex() == want.hex()
        assert box_center(m).fibers[:, 0].tobytes() == center_floats(m)

    def test_denominator_two_to_the_1100(self):
        den = 2**1100
        lo = [Fraction(-(2**1060) - 3, den), Fraction(1, den), Fraction(2**1100 - 1, den),
              Fraction(-5, den)]
        hi = [Fraction(2**1046 + 1, den), Fraction(2**30 + 1, den), Fraction(2**1100, den),
              Fraction(-5, den)]
        m = Box(4, lo, hi)
        assert m._den == den
        got = box_center(m).fibers[:, 0]
        assert got.tobytes() == center_floats(m)
        assert got[2] == 1.0 and got[3].hex() == "-0x0.0p+0" and 0.0 < got[1] < 2.0 ** -1022


class TestNumeratorBoxEdges:
    def test_bounds_of_mixed_types_give_one_box(self):
        want = Box(2, (Fraction(1, 2), Fraction(-3)), (Fraction(3, 4), Fraction(5)))
        for lo, hi in (((0.5, -3), (0.75, 5)), ((Fraction(2, 4), -3.0), (Fraction(6, 8), 5))):
            got = Box(2, lo, hi)
            assert_same_box(got, want)
            assert hash(got) == hash(want)

    def test_empty_markers_equal_by_dimension(self):
        assert Box.empty(3) == Box.empty(3)
        assert Box.empty(3) != Box.empty(2)
        assert Box.empty(1) != Box(1, [0], [0])
        assert Box.empty(2).lo is None and Box.empty(2).hi is None
        assert Box(1, [1], [1]) != (1,)

    def test_immutable(self):
        b = Box(2, [0, 1], [2, 3])
        for name in ("dim", "lo", "hi", "other"):
            with pytest.raises(AttributeError):
                setattr(b, name, 1)

    def test_constructor_checks(self):
        with pytest.raises(ValueError, match="inverted"):
            Box(1, (Fraction(1, 3),), (Fraction(1, 4),))
        with pytest.raises(ValueError, match="finite"):
            Box(1, (float("-inf"),), (0.0,))
        with pytest.raises(SpaceMismatchError):
            Box(2, (0, 1), (1,))
        with pytest.raises(ValueError):
            Box(1, (0,), None)

    def test_repr_shows_fraction_bounds(self):
        assert repr(Box(1, [0.5], [1])) == (
            "Box(dim=1, lo=(Fraction(1, 2),), hi=(Fraction(1, 1),))")
