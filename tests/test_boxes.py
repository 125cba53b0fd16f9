"""Box algebra tests.

The closed forms for the ball-intersection operators are checked against
a dense-grid membership oracle in low dimension before anything else
relies on them, and the contraction property is asserted exactly over
Fraction bounds, with no tolerance anywhere.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from supfix.boxes import (
    Box,
    ball_intersection,
    bounding_box,
    box_A,
    box_H,
    box_center,
    intersect,
)
from supfix.errors import EmptyDomainError
from supfix.spaces import PointCloud, SupPoint

HALF = Fraction(1, 2)


def corners(box: Box):
    return itertools.product(*[(float(a), float(b)) for a, b in zip(box.lo, box.hi)])


def sup_dist_to_box(y, box: Box) -> float:
    """Exact sup distance from y to the farthest point of the box.

    Per coordinate the farthest point sits at an endpoint, so scanning the
    corners is exhaustive.
    """
    return max(max(abs(yi - ci) for yi, ci in zip(y, corner)) for corner in corners(box))


def grid_points(lo, hi, steps):
    axes = [np.linspace(a, b, steps) for a, b in zip(lo, hi)]
    return itertools.product(*axes)


def random_box(rng, dim) -> Box:
    lo = rng.uniform(-3, 3, size=dim)
    hi = lo + rng.uniform(0.1, 4, size=dim)
    return Box.bounds(lo, hi)


class TestBoxBasics:
    def test_bounds_and_diameter(self):
        b = Box.bounds([0, -1], [2, 1])
        assert b.diameter() == Fraction(2)

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            Box.bounds([1.0], [0.0])

    def test_empty_marker(self):
        e = Box.empty(3)
        assert e.is_empty
        assert e.diameter() == 0
        with pytest.raises(EmptyDomainError):
            box_center(e)

    def test_point_box(self):
        b = Box.point([1.5, -0.5])
        assert b.diameter() == 0
        assert b.contains([1.5, -0.5])

    def test_float_bounds_are_exact(self):
        # floats are dyadic rationals; lifting must not introduce error
        b = Box.bounds([0.1], [0.3])
        assert b.lo[0] == Fraction(0.1)
        assert float(b.lo[0]) == 0.1

    def test_contains_with_tolerance(self):
        b = Box.bounds([0.0], [1.0])
        assert b.contains([1.0 + 1e-12], tol=1e-9)
        assert not b.contains([1.1], tol=1e-3)


class TestIntersect:
    def test_matches_interval_logic(self, rng):
        for _ in range(50):
            a, b = random_box(rng, 3), random_box(rng, 3)
            got = intersect(a, b)
            want_lo = [max(x, y) for x, y in zip(a.lo, b.lo)]
            want_hi = [min(x, y) for x, y in zip(a.hi, b.hi)]
            if any(x > y for x, y in zip(want_lo, want_hi)):
                assert got.is_empty
            else:
                assert got.lo == tuple(want_lo) and got.hi == tuple(want_hi)

    def test_empty_absorbs(self):
        b = Box.bounds([0], [1])
        assert intersect(b, Box.empty(1)).is_empty


class TestBallIntersection:
    def test_grid_oracle_2d(self, rng):
        """Membership in the ball intersection, point by point on a grid."""
        for _ in range(10):
            centers = rng.uniform(-1, 1, size=(4, 2))
            r = rng.uniform(0.8, 2.0)
            got = ball_intersection(centers, r)
            for y in grid_points([-3.2, -3.2], [3.2, 3.2], 17):
                inside = all(max(abs(y[0] - c[0]), abs(y[1] - c[1])) <= r for c in centers)
                assert got.contains(y, tol=1e-12) == inside

    def test_empty_when_radius_too_small(self):
        assert ball_intersection([[0.0], [10.0]], 1.0).is_empty

    def test_single_center_is_ball(self):
        b = ball_intersection([[1.0, 2.0]], 0.5)
        assert b.lo == (HALF, Fraction(3, 2)) and b.hi == (Fraction(3, 2), Fraction(5, 2))


class TestBoxA:
    def test_dense_grid_oracle_2d(self, rng):
        """A(M) against brute force: y is in A(M) iff every sampled point of M
        is within c * diam of y; corner scanning makes the check exact."""
        for _ in range(10):
            m = random_box(rng, 2)
            r = float(HALF * m.diameter())
            got = box_A(m, HALF)
            span = 1.2 * float(m.diameter())
            lo = [float(x) - span for x in m.lo]
            hi = [float(x) + span for x in m.hi]
            for y in grid_points(lo, hi, 13):
                inside = sup_dist_to_box(y, m) <= r + 1e-12
                assert got.contains(y, tol=1e-9) == inside, (y, m)

    def test_closed_form_1d(self):
        m = Box.bounds([0.0], [1.0])
        a = box_A(m, HALF)
        assert a.lo == (HALF,) and a.hi == (HALF,)

    def test_asymmetric_coordinates(self):
        # diam set by the widest coordinate; narrow ones gain slack
        m = Box.bounds([0, 0], [4, 1])
        a = box_A(m, HALF)
        assert a.lo == (Fraction(2), Fraction(-1)) and a.hi == (Fraction(2), Fraction(2))

    def test_empty_input_propagates(self):
        assert box_A(Box.empty(2), HALF).is_empty


class TestBoxH:
    def test_equals_m_intersect_a(self, rng):
        """H(M) coincides with the intersection of M and A(M), exactly."""
        for _ in range(100):
            m = random_box(rng, 4)
            assert box_H(m, HALF) == intersect(m, box_A(m, HALF))

    def test_dense_grid_oracle_2d(self, rng):
        for _ in range(8):
            m = random_box(rng, 2)
            r = float(HALF * m.diameter())
            a = box_A(m, HALF)
            got = box_H(m, HALF)
            span = 0.2 + float(m.diameter())
            lo = [float(x) - span for x in m.lo]
            hi = [float(x) + span for x in m.hi]
            for y in grid_points(lo, hi, 13):
                inside = (
                    a.contains(y, tol=1e-12)
                    and sup_dist_to_box(y, a) <= r + 1e-12
                )
                assert got.contains(y, tol=1e-9) == inside

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
        p = Box.point([1.0, 2.0])
        assert box_H(p, HALF) == p


class TestCentersAndBounding:
    def test_box_center_is_midpoint(self):
        c = box_center(Box.bounds([0.0, -2.0], [1.0, 0.0]))
        assert c.flat().tolist() == [0.5, -1.0]

    def test_bounding_box_of_cloud(self, rng):
        arr = rng.standard_normal((6, 3, 1))
        cloud = PointCloud.from_array(arr)
        bb = bounding_box(cloud)
        flat = arr[:, :, 0]
        for i in range(3):
            assert float(bb.lo[i]) == flat[:, i].min()
            assert float(bb.hi[i]) == flat[:, i].max()

    def test_bounding_box_needs_k1(self, rng):
        cloud = PointCloud.from_array(rng.standard_normal((4, 2, 2)))
        with pytest.raises(Exception):
            bounding_box(cloud)
