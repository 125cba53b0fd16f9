"""Smallest enclosing ball tests.

The 2-D oracle enumerates all pair-diameter and triple-circumcircle
candidates, which is an exhaustive characterization of the optimum, and
is written here from scratch so the solver is checked against
independent arithmetic.  Higher dimensions are covered by the optimality
conditions: containment, the dimension-dependent radius-to-diameter
bound, and the support points surrounding the center.  The recursive
form of Welzl's algorithm, on numpy scalars, is kept as the reference the
loop form must match float for float.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import nnls

from supfix.errors import EmptyDomainError
from supfix.seb import _SHUFFLE_SEED, seb_center


def brute_force_2d(points):
    """Minimum over all balls through 2 or 3 of the points that contain all."""
    pts = [tuple(p) for p in points]
    best = None
    for a, b in itertools.combinations(pts, 2):
        c = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        r = math.dist(a, b) / 2
        if all(math.dist(p, c) <= r * (1 + 1e-12) for p in pts):
            if best is None or r < best[1]:
                best = (c, r)
    for a, b, d in itertools.combinations(pts, 3):
        # circumcenter by perpendicular bisector equations
        ax, ay = a
        m = np.array([[b[0] - ax, b[1] - ay], [d[0] - ax, d[1] - ay]])
        rhs = 0.5 * np.array(
            [(b[0] - ax) ** 2 + (b[1] - ay) ** 2, (d[0] - ax) ** 2 + (d[1] - ay) ** 2]
        )
        if abs(np.linalg.det(m)) < 1e-12:
            continue
        off = np.linalg.solve(m, rhs)
        c = (ax + off[0], ay + off[1])
        r = math.dist(c, a)
        if all(math.dist(p, c) <= r * (1 + 1e-12) for p in pts):
            if best is None or r < best[1]:
                best = (c, r)
    return best


def recursive_welzl_reference(points):
    """seb_center as the recursion over points[:-1] computed it."""
    arr = np.asarray(points, dtype=float)
    k = arr.shape[1]
    uniq = list(dict.fromkeys(tuple(row) for row in arr))  # tuples of np.float64
    if len(uniq) == 1:
        return np.array(uniq[0]), 0.0

    def dist2(a, b):
        return sum((x - y) ** 2 for x, y in zip(a, b))

    def circumball(support):
        r0 = support[0]
        if len(support) == 1:
            return r0, 0.0
        rows = [tuple(x - y for x, y in zip(p, r0)) for p in support[1:]]
        G = np.array([[2.0 * sum(u * v for u, v in zip(a, b)) for b in rows] for a in rows])
        rhs = np.array([sum(u * u for u in a) for a in rows])
        try:
            lam = np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError:
            lam = np.linalg.lstsq(G, rhs, rcond=None)[0]
        center = tuple(x0 + sum(l * a[i] for l, a in zip(lam, rows)) for i, x0 in enumerate(r0))
        return center, dist2(center, r0)

    def welzl(pts, support):
        if not pts or len(support) == k + 1:
            return circumball(support) if support else (None, -1.0)
        p = pts[-1]
        center, rad2 = welzl(pts[:-1], support)
        if center is not None and dist2(p, center) <= rad2 * (1.0 + 1e-13):
            return center, rad2
        return welzl(pts[:-1], support + [p])

    order = np.random.default_rng(_SHUFFLE_SEED).permutation(len(uniq))
    center, _ = welzl([uniq[i] for i in order], [])
    return np.array(center), max(math.dist(tuple(row), center) for row in uniq)


def center_in_hull_of_support(points, center, radius, tol=1e-7):
    """Optimality: the center is a convex combination of boundary points."""
    support = [p for p in points if abs(math.dist(p, center) - radius) <= tol * (1 + radius)]
    if not support:
        return False
    a = np.vstack([np.array(support).T, np.ones(len(support))])
    b = np.concatenate([np.asarray(center), [1.0]])
    _, rnorm = nnls(a, b)
    return rnorm <= 1e-6


class TestSebLowDim:
    def test_single_point(self):
        c, r = seb_center([[3.0, 4.0]])
        assert r == 0.0 and c.tolist() == [3.0, 4.0]

    def test_two_points_midpoint(self):
        c, r = seb_center([[0.0, 0.0], [2.0, 0.0]])
        assert c == pytest.approx([1.0, 0.0])
        assert r == pytest.approx(1.0)

    def test_1d_is_interval_midpoint(self, rng):
        for _ in range(20):
            xs = rng.uniform(-5, 5, size=9)
            c, r = seb_center(xs)
            assert c[0] == pytest.approx((xs.min() + xs.max()) / 2, abs=1e-12)
            assert r == pytest.approx((xs.max() - xs.min()) / 2, abs=1e-12)

    def test_matches_2d_brute_force(self, rng):
        for _ in range(40):
            pts = rng.standard_normal((int(rng.integers(2, 9)), 2))
            c, r = seb_center(pts)
            want_c, want_r = brute_force_2d(pts)
            assert r == pytest.approx(want_r, abs=1e-9)
            assert np.linalg.norm(c - np.array(want_c)) <= 1e-8

    def test_duplicate_points_ignored(self):
        c, r = seb_center([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
        assert r == pytest.approx(1.0)


class TestSebProperties:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_containment_and_jung_bound(self, rng, k):
        for _ in range(25):
            n = int(rng.integers(2, 14))
            pts = rng.standard_normal((n, k))
            c, r = seb_center(pts)
            dists = np.linalg.norm(pts - c, axis=1)
            assert dists.max() <= r + 1e-12  # radius is recomputed, no slack needed
            diam = max(
                np.linalg.norm(pts[i] - pts[j]) for i in range(n) for j in range(i + 1, n)
            )
            jung = diam * math.sqrt(k / (2 * (k + 1)))
            assert r <= jung + 1e-9

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_center_surrounded_by_support(self, rng, k):
        for _ in range(15):
            pts = rng.standard_normal((int(rng.integers(3, 12)), k))
            c, r = seb_center(pts)
            assert center_in_hull_of_support([tuple(p) for p in pts], c, r)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_loop_form_matches_recursive_reference_exactly(self, rng, k):
        for n in (2, 3, 7, 15, 40):
            for pts in (rng.standard_normal((n, k)),
                        rng.integers(-4, 5, size=(n, k)) * 0.25):  # duplicates, degenerate sets
                c, r = seb_center(pts)
                want_c, want_r = recursive_welzl_reference(pts)
                assert np.array_equal(c, want_c) and r == want_r

    def test_deterministic_across_calls(self, rng):
        pts = rng.standard_normal((10, 3))
        first = seb_center(pts)
        second = seb_center(pts)
        assert np.array_equal(first[0], second[0]) and first[1] == second[1]

    def test_input_order_invariance(self, rng):
        """The optimum is unique; permuting input must agree to solver noise."""
        pts = rng.standard_normal((12, 3))
        c1, r1 = seb_center(pts)
        c2, r2 = seb_center(pts[::-1])
        assert np.linalg.norm(c1 - c2) <= 1e-9
        assert r1 == pytest.approx(r2, abs=1e-9)

    def test_cocircular_points(self):
        angles = np.linspace(0, 2 * np.pi, 7, endpoint=False)
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        c, r = seb_center(pts)
        assert np.linalg.norm(c) <= 1e-9
        assert r == pytest.approx(1.0, abs=1e-9)

    def test_empty_input_raises(self):
        with pytest.raises(EmptyDomainError):
            seb_center(np.empty((0, 3)))

    def test_many_points_do_not_deepen_the_recursion(self):
        """1500 points overflowed the stack of a recursion over the points;
        the loop form nests only as deep as the support set."""
        pts = np.random.default_rng(1500).standard_normal((1500, 3))
        c, r = seb_center(pts)
        assert max(math.dist(p, c) for p in pts.tolist()) <= r
        assert center_in_hull_of_support([tuple(p) for p in pts], c, r)

    @pytest.mark.parametrize("pts", [[[0.0], [1.2e154]], [[0.0, 0.0], [1.2e154, 0.0], [0.0, 1.2e154]],
                                     [[0.0], [1e200]]])
    def test_points_too_far_apart_are_refused(self, pts):
        """Their Gram entries overflow; they once gave a wrong or NaN center."""
        with pytest.raises(OverflowError):
            seb_center(pts)
