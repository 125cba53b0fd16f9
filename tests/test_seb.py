"""Smallest enclosing ball tests.

The 2-D oracle enumerates all pair-diameter and triple-circumcircle
candidates, which is an exhaustive characterization of the optimum, and
is written here from scratch so the solver is checked against
independent arithmetic.  Higher dimensions are covered by the optimality
conditions: containment, the dimension-dependent radius-to-diameter
bound, and the support points surrounding the center.  The recursive
form of Welzl's algorithm, on numpy scalars, is kept as the reference the
generated loop form must match float for float.  `seb_center` is odd:
the center of the negated points is the negated center wherever the
center has no zero coordinate, which `urns_center` relies on.
"""

import gc
import inspect
import itertools
import json
import linecache
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg
from scipy.optimize import nnls
from test_groups import EXTRA_GENERATORS

import supfix
from supfix import seb
from supfix.errors import EmptyDomainError
from supfix.seb import _SHUFFLE_SEED, _kernel, _solve_errstate, _Support, seb_center
from supfix.unitary import unitary_closure


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


def scale_exponent(arr):
    """(e, shift) such that seb_center solves on (points - shift) times
    2^-e: e is 0 while the coordinate spread lies in the window
    [2^-100, 2^100], else the spread's binary exponent (the largest
    |coordinate|'s when the spread overflows); shift is the first point
    where e is below that of the largest |coordinate| less 1020, else None."""
    with np.errstate(over="ignore"):
        spread = float((arr.max(axis=0) - arr.min(axis=0)).max())
    low, high = seb._SPREAD_WINDOW
    if spread == 0.0 or low <= spread <= high:
        return 0, None
    top = math.frexp(float(np.abs(arr).max()))[1]
    e = math.frexp(spread)[1] if math.isfinite(spread) else top
    return e, (arr[0] if e < top - 1020 else None)


def recursive_welzl_reference(points):
    """seb_center as the recursion over points[:-1] computed it, on the
    points translated and scaled by scale_exponent, with the center
    scaled and translated back."""
    arr = np.asarray(points, dtype=float)
    k = arr.shape[1]
    uniq = list(dict.fromkeys(tuple(row) for row in arr))  # tuples of np.float64
    if len(uniq) == 1:
        return np.array(uniq[0]), 0.0
    e, shift = scale_exponent(arr)
    moved = arr if shift is None else arr - shift
    scaled = list(dict.fromkeys(tuple(row) for row in np.ldexp(moved, -e)))

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

    order = np.random.default_rng(_SHUFFLE_SEED).permutation(len(scaled))
    center, _ = welzl([scaled[i] for i in order], [])
    center = np.ldexp(center, e)
    center = tuple(center if shift is None else center + shift)
    return np.array(center), max(math.dist(tuple(row), center) for row in uniq)


def exactness_clouds(case, rng):
    """Inputs on which seb_center must match the recursive reference.

    An integer k gives random and grid clouds in R^k, of at most 15 points
    past k = 8, where the reference's recursion gets slow.  certify_k4 and
    certify_k5 are shaped like the fibers of the benchmark's 50-point
    certificate clouds.  2T_quaternions, B3_orbit and heptagon are
    cospherical: every point lies within rounding of the boundary, where
    the inside test cannot be settled by `math.dist` and must fall back to
    the exact squared distance.  ulp_boundary has one point on which the
    two distances disagree.  subnormal clouds have spreads below 2^-100,
    so both sides solve them scaled by a power of two.  signed_zero_grid
    mixes 0.0 and -0.0, which compare equal, so the first of two such
    points is the one kept.  coplanar_3 and coplanar_5 lie in a 2-plane of
    R^3 and R^5 on a dyadic grid, some at scale 0.5e-162, which is scaled
    too.  Unscaled, the squares at that scale are subnormal and round
    coarsely enough to push a fourth support point, whose singular Gram
    takes the least-squares fallback.
    """
    if isinstance(case, int):
        return [pts for n in (2, 3, 7, 15, 40) if n <= 15 or case <= 8
                for pts in (rng.standard_normal((n, case)),
                            rng.integers(-4, 5, size=(n, case)) * 0.25)]  # duplicates, degenerate sets
    if case == "subnormal":
        return [rng.standard_normal((n, k)) * scale for k in (1, 2, 3, 5)
                for n in (3, 12) for scale in (1e-155, 1e-160, 1e-300)]
    if case == "signed_zero_grid":
        return [rng.choice([-1.0, -0.0, 0.0, 1.0], size=(n, k)) for k in (1, 2, 3, 4)
                for n in (4, 12, 30)]
    if case.startswith("coplanar_"):
        k = int(case[-1])
        clouds = []
        for n in (6, 12, 25):
            plane = np.zeros((n, k))
            plane[:, :2] = rng.integers(-4, 5, size=(n, 2)) * 0.5
            clouds += [plane, plane + rng.integers(-8, 9, size=k) * 0.125]
        for _ in range(30):
            plane = np.zeros((25, k))
            plane[:, :2] = rng.integers(-4, 5, size=(25, 2)) * 0.5e-162
            clouds.append(plane)
        return clouds
    if case.startswith("certify_k"):
        return [rng.standard_normal((50, int(case[-1]))) for _ in range(6)]
    if case == "2T_quaternions":  # the 24 units of the binary tetrahedral group in R^4
        units = [v for v in itertools.product((-1.0, 0.0, 1.0), repeat=4) if sum(map(abs, v)) == 1]
        units += list(itertools.product((-0.5, 0.5), repeat=4))
        shift = np.array([0.1, 1 / 3, -0.7, 2 / 7])
        return [np.array(units) * scale + shift * scale for scale in (1.0, 0.3, 1.7, math.pi)]
    if case == "B3_orbit":  # signed permutations of a generic vector in R^3, 48 points
        clouds = []
        for v in ((0.3, 0.7, 1.1), (1 / 3, 2 / 7, 5 / 11)):
            orbit = [[s * v[i] for s, i in zip(signs, perm)]
                     for perm in itertools.permutations(range(3))
                     for signs in itertools.product((-1, 1), repeat=3)]
            clouds += [np.array(orbit) + shift for shift in (0.0, 0.37, -1.9)]
        return clouds
    if case == "heptagon":  # rotated regular 7-gons
        clouds = []
        for rot in (0.1, 1.234, math.pi / 7):
            angles = rot + 2 * np.pi * np.arange(7) / 7
            for radius, x, y in ((1.0, 0.0, 0.0), (2.5, 0.3, -0.7), (1e-4, 1 / 3, 1 / 9)):
                clouds.append(np.stack([radius * np.cos(angles) + x,
                                        radius * np.sin(angles) + y], axis=1))
        return clouds
    if case == "ulp_boundary":
        # The last point visited lies within ulps of the widened boundary
        # sqrt(rad2 (1 + 1e-13)) of the ball of the other six: `math.dist`
        # puts it inside, the explicit sum of squares outside.
        return [np.array([[float.fromhex(x) for x in row] for row in ULP_BOUNDARY_CLOUD])]
    raise ValueError(case)


EXACTNESS_CASES = [1, 2, 3, 4, 5, 6, 7, 8, 24, "certify_k4", "certify_k5", "2T_quaternions",
                   "B3_orbit", "heptagon", "ulp_boundary", "subnormal", "signed_zero_grid",
                   "coplanar_3", "coplanar_5"]


def assert_matches_reference(pts):
    c, r = seb_center(pts)
    # a subnormal coplanar Gram can give an infinite lambda, and
    # inf * 0.0 warns on the reference's numpy scalars, not on floats
    with np.errstate(invalid="ignore"):
        want_c, want_r = recursive_welzl_reference(pts)
    assert c.tobytes() == want_c.tobytes() and r == want_r  # signed zeros too


ULP_BOUNDARY_CLOUD = [
    ["0x1.427a31c1ffc58p-10", "0x1.31ea59a5b303ep-2", "-0x1.18b7980d81558p-2"],
    ["-0x1.c7fba74b18102p-1", "-0x1.d19537e309692p-2", "-0x1.fbb918e5cd3f0p-1"],
    ["0x1.ecb246c7071e5p-5", "0x1.571858a941e07p+0", "-0x1.f804fc5039525p-2"],
    ["-0x1.3daee2d56e58bp-1", "0x1.f5992787010aap-2", "0x1.6d73c9b1a8b33p-2"],
    ["0x1.afc6d9ffa76cap-4", "-0x1.dc664ebbfd571p-1", "-0x1.df43093500899p-6"],
    ["-0x1.23d74921e4afcp-1", "-0x1.3d97e674b9a4ap-1", "-0x1.5c685d3d362f8p+0"],
    ["0x1.63fec7c2015e9p-1", "-0x1.581e71cf65997p+0", "-0x1.d49939df35222p-2"],
]


def mirror_clouds():
    """A derandomized set for the odd-symmetry test: normal clouds, dyadic
    grids with duplicates, cospherical orbits of a generic vector of C^2
    (as R^4) under 2T, 2O and 2I, each of these at scales 2**60 and
    2**-60 too, and copies with 0.0 and -0.0 entries."""
    rng = np.random.default_rng(0x0DD)
    clouds = []
    for k in (1, 2, 3, 4, 5, 8):
        for n in (2, 3, 7, 20):
            clouds.append(rng.standard_normal((n, k)))
            clouds.append(rng.integers(-3, 4, size=(n, k)) * 0.5)
    v = np.array([0.3 + 0.1j, -0.7 + 0.45j])
    for name in ("2T", "2O", "2I"):
        images = unitary_closure(EXTRA_GENERATORS[name]).elements @ v
        orbit = np.concatenate([images.real, images.imag], axis=1)
        clouds += [orbit, orbit + np.array([0.25, -1.0, 0.5, 0.125])]
    clouds += [pts * 2.0**e for pts in clouds for e in (60, -60)]
    for pts in clouds[:48]:
        signed = pts.copy()
        signed[rng.random(pts.shape) < 0.3] = 0.0
        signed[rng.random(pts.shape) < 0.3] = -0.0
        clouds.append(signed)
    return clouds


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

    @pytest.mark.parametrize("case", EXACTNESS_CASES)
    def test_loop_form_matches_recursive_reference_exactly(self, rng, case):
        for pts in exactness_clouds(case, rng):
            assert_matches_reference(pts)

    @pytest.mark.parametrize("case", EXACTNESS_CASES)
    def test_repeated_points_change_no_float(self, rng, case):
        """Appending every point again, in reverse order, leaves the first
        occurrences (of 0.0 and -0.0 too) as the distinct points, so the
        visit order, every inside test and every float stay the same."""
        for pts in exactness_clouds(case, rng):
            c, r = seb_center(pts)
            c2, r2 = seb_center(np.vstack([pts, pts[::-1]]))
            assert c2.tobytes() == c.tobytes() and r2 == r

    @pytest.mark.parametrize("case", [*EXACTNESS_CASES, "mirror_clouds"])
    def test_negated_points_give_the_negated_center(self, rng, case):
        """seb_center(-P) is -seb_center(P) byte for byte, with the same
        radius, whenever the center has no zero coordinate; so is the
        center of 0.0 - P, which differs from -P only in signed zeros."""
        clouds = mirror_clouds() if case == "mirror_clouds" else exactness_clouds(case, rng)
        checked = 0
        for pts in clouds:
            c, r = seb_center(pts)
            if not c.all():
                continue
            for mirror in (-pts, 0.0 - pts):
                c2, r2 = seb_center(mirror)
                assert c2.tobytes() == (-c).tobytes() and r2 == r
            checked += 1
        assert checked  # each case has clouds whose center has no zero coordinate

    @pytest.mark.parametrize("pts", [[[-1.0, 1.0], [1.0, 1.0]], [[0.0, 2.0], [0.0, 2.0]]],
                             ids=["zero_center_coordinate", "single_point_with_zero"])
    def test_a_zero_center_coordinate_breaks_the_symmetry(self, pts):
        """A center coordinate that is exactly zero is 0.0 on both sides, and
        a single distinct point is its own center, zeros' signs included;
        so against the mirror 0.0 - P, -c differs in a signed zero."""
        pts = np.array(pts)
        c, _ = seb_center(pts)
        assert not c.all()
        assert seb_center(0.0 - pts)[0].tobytes() != (-c).tobytes()

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

    @pytest.mark.parametrize("pts", [[[1.0, np.nan]], [[0.0, 0.0], [np.nan, 1.0], [2.0, 0.0]],
                                     [[0.0], [np.inf]]])
    def test_non_finite_points_are_refused(self, pts):
        """They once gave a NaN center, or a NaN center with radius 0."""
        with pytest.raises(ValueError, match="must be finite"):
            seb_center(pts)

    @pytest.mark.parametrize("pts, center, radius", [
        ([[0.0], [1.2e154]], [6e153], 6e153),
        ([[0.0, 0.0], [1.2e154, 0.0], [0.0, 1.2e154]], [6e153, 6e153], math.hypot(6e153, 6e153)),
        ([[0.0], [1e200]], [5e199], 5e199),
        ([[-1e308], [1e308]], [0.0], 1e308),
    ])
    def test_points_far_apart_get_their_balls(self, pts, center, radius):
        """Their Gram entries overflow unscaled; these were refused, and
        before that gave a wrong or NaN center."""
        c, r = seb_center(pts)
        assert c.tolist() == center
        assert r == radius

    def test_large_coordinates_with_a_tiny_spread_stay_finite(self):
        """Scaled by 2^-e for the spread alone, 1e300 would overflow and the
        center would be NaN; the points are translated before they are
        scaled, so every coordinate stays finite."""
        pts = [[1e300, 0.0], [1e300, 1e-200]]
        c, r = seb_center(pts)
        assert all(map(math.isfinite, c)) and 0.0 < r <= 1e-200
        assert max(math.dist(p, c) for p in pts) <= r

    SKEW = [(2.0, 1.0), (-4.0, -2.0), (-1.0, -4.0), (1.0, -3.0)]

    @pytest.mark.parametrize("s", [0.5e-162, 1e-200])
    def test_tiny_points_get_the_scaled_ball(self, s):
        """Unscaled, the squares underflow: at 0.5e-162 the center and
        radius were infinite, at 1e-200 the ball was about twice too large."""
        c1, r1 = seb_center(self.SKEW)
        c, r = seb_center(np.array(self.SKEW) * s)
        assert np.allclose(c, c1 * s, rtol=1e-14, atol=0.0)
        assert r == pytest.approx(r1 * s, rel=1e-14)

    @pytest.mark.parametrize("t", [-1000, -600, -101, 101, 600, 1000])
    def test_power_of_two_scales_are_exact(self, t):
        """Outside the spread window the ball is the scale-1 ball times 2^t,
        float for float."""
        c1, r1 = seb_center(self.SKEW)
        c, r = seb_center(np.ldexp(self.SKEW, t))
        assert c.tobytes() == np.ldexp(c1, t).tobytes()
        assert r == math.ldexp(r1, t)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.integers(-1000, 1000), st.integers(1, 3).flatmap(lambda k: st.lists(
        st.lists(st.integers(-64, 64), min_size=k, max_size=k), min_size=1, max_size=9)))
    def test_every_power_of_two_scale_is_exact(self, t, cloud):
        """Clouds on the grid of multiples of 1/8 in [-8, 8]: the ball of the
        cloud times 2^t is the scale-1 ball times 2^t, float for float, for
        every t from -1000 to 1000."""
        pts = np.ldexp(np.array(cloud, dtype=float), -3)
        c1, r1 = seb_center(pts)
        c, r = seb_center(np.ldexp(pts, t))
        assert c.tobytes() == np.ldexp(c1, t).tobytes()
        assert r == math.ldexp(r1, t)

    def test_huge_coordinates_with_a_tiny_spread_get_the_optimal_ball(self):
        """Where 2^-e for the spread would overflow 1e300, the points are
        translated by the first point before they are scaled: the ball of
        (1e300, 0) and (1e300, 1e-200) is the optimum, radius 5e-201 (a
        clamped scale gave 1e-200)."""
        c, r = seb_center([[1e300, 0.0], [1e300, 1e-200]])
        assert c.tolist() == [1e300, 5e-201] and r == 5e-201

    @pytest.mark.parametrize("s", [2.0 ** -700, 1e-200, 2.0 ** -1000])
    def test_a_tiny_cloud_far_out_gets_the_translated_ball(self, s):
        """The skew cloud times s, at 1e300 on a third axis, gets the
        scale-1 ball times s beside 1e300, and the recursive reference's
        floats, which translate and scale the same way."""
        pts = np.array([(1e300, x * s, y * s) for x, y in self.SKEW])
        c1, r1 = seb_center(self.SKEW)
        c, r = seb_center(pts)
        assert c[0] == 1e300 and np.allclose(c[1:], c1 * s, rtol=1e-14, atol=0.0)
        assert r == pytest.approx(r1 * s, rel=1e-14)
        assert_matches_reference(pts)


def push_all(points):
    """Push the points as supports 0, 1, ... with the generated kernel of
    their dimension, under seb_center's solve state; returns the last
    circumball and the support."""
    k = len(points[0])
    sup = _Support(k)
    with _solve_errstate():
        for s, p in enumerate(points):
            ball = _kernel(k, s).push(sup, tuple(p))
    return ball, sup


def center_from(sup, lam):
    """The center r_0 + sum_i lam_i a_i, summed left to right from 0.0."""
    acc = [0.0] * len(sup.r0)
    for l, a in zip(lam, sup.rows):
        acc = [c + l * x for c, x in zip(acc, a)]
    return tuple([x0 + c for x0, c in zip(sup.r0, acc)])


def dist2(a, b):
    """Squared distance, summed left to right from 0.0."""
    acc = 0.0
    for x, y in zip(a, b):
        acc += (x - y) ** 2
    return acc


def spy_on_lstsq(monkeypatch):
    """Record the order of every Gram np.linalg.lstsq is called on."""
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda a, *rest, **kw: calls.append(len(a)) or lstsq(a, *rest, **kw))
    return calls


class TestSupportSolve:
    """The generated push calls the LAPACK gufunc under np.linalg.solve directly."""

    def test_singular_gram_takes_the_lstsq_fallback(self, monkeypatch):
        """Collinear supports make the 2 x 2 Gram exactly singular, and
        coplanar ones in R^3 the 3 x 3 Gram."""
        singular = [
            ([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [[2.0, 4.0], [4.0, 8.0]]),
            ([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)],
             [[2.0, 0.0, 2.0], [0.0, 2.0, 2.0], [2.0, 2.0, 4.0]]),
        ]
        calls = spy_on_lstsq(monkeypatch)
        for points, gram in singular:
            calls.clear()
            (center, rad2), sup = push_all(points)
            s = len(points) - 1
            assert calls == [s]
            g_s, rhs = sup.gram[:s, :s], sup.rhs[:s]
            assert g_s.tolist() == gram
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(g_s, rhs)
            want = center_from(sup, np.linalg.lstsq(g_s, rhs, rcond=None)[0].tolist())
            assert np.array(center).tobytes() == np.array(want).tobytes()
            assert all(map(math.isfinite, center))
            assert rad2 == dist2(want, sup.r0)

    def test_center_sums_start_from_zero(self):
        """Here every row is 0.0 in the last coordinate and the lambdas are
        negative, so the sum of the lambda_i a_i there is -0.0 without the
        0.0 it starts from, and r_0 + -0.0 keeps r_0's sign."""
        points = [(0.0, 0.0, -0.0), (-2.0, 1.0, -0.0), (1.0, 2.0, -0.0), (0.0, -3.0, -0.0)]
        (center, _), sup = push_all(points)
        lam = np.linalg.solve(sup.gram[:3, :3], sup.rhs[:3]).tolist()
        assert max(lam) < 0.0
        assert np.array(center).tobytes() == np.array(center_from(sup, lam)).tobytes()
        assert math.copysign(1.0, center[2]) == 1.0

    @pytest.mark.parametrize("case", ["coplanar_3", "coplanar_5"])
    def test_seb_center_takes_the_fallback_on_coplanar_clouds(self, rng, monkeypatch, case):
        """With the spread window opened wide, seb_center runs the kernel on
        the exactness clouds unscaled; they reach singular Grams of order 3
        and more, and the centers still match the reference's."""
        monkeypatch.setattr(seb, "_SPREAD_WINDOW", (0.0, math.inf))
        calls = spy_on_lstsq(monkeypatch)
        reached = []
        for pts in exactness_clouds(case, rng):
            calls.clear()
            c, r = seb_center(pts)
            reached += calls
            with np.errstate(invalid="ignore"):  # see assert_matches_reference
                want_c, want_r = recursive_welzl_reference(pts)
            assert c.tobytes() == want_c.tobytes() and r == want_r
        assert max(reached) >= 3

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
    def test_regular_grams_solve_as_np_linalg_solve(self, rng, k):
        for _ in range(40):
            pts = rng.standard_normal((k + 1, k)) * 10.0 ** rng.integers(-3, 4)
            for s in range(2, k + 1):
                (center, rad2), sup = push_all(pts[:s + 1])
                lam = np.linalg.solve(sup.gram[:s, :s], sup.rhs[:s])
                want = center_from(sup, lam.tolist())
                assert np.array(center).tobytes() == np.array(want).tobytes()
                assert rad2 == dist2(want, sup.r0)

    def test_seb_center_pushes_under_the_solve_state(self, rng, monkeypatch):
        """The state np.linalg.solve sets around the gufunc: invalid (a
        singular matrix) raises LinAlgError, the other flags are ignored."""
        seen = []
        solve1 = _umath_linalg.solve1

        def spy(*args, **kwargs):
            seen.append((np.geterr(), np.geterrcall()))
            return solve1(*args, **kwargs)

        monkeypatch.setattr(_umath_linalg, "solve1", spy)
        seb_center(rng.standard_normal((12, 3)))
        assert len(seen) >= 4
        for state, callback in seen:
            assert state == {"divide": "ignore", "over": "ignore", "under": "ignore", "invalid": "call"}
            with pytest.raises(np.linalg.LinAlgError):
                callback("invalid", 8)


    def test_float64_grams_select_the_dd_loop(self, rng):
        """The generated push calls solve1 without a signature: float64
        Grams resolve to the dd->d loop, the one np.linalg.solve names."""
        f8 = np.dtype(np.float64)
        assert _umath_linalg.solve1.resolve_dtypes((f8, f8, None)) == (f8, f8, f8)
        for s in range(2, 6):
            _, sup = push_all(rng.standard_normal((s + 1, s)))
            gram, rhs = sup.grams[s], sup.rhss[s]
            got = _umath_linalg.solve1(gram, rhs)
            want = _umath_linalg.solve1(gram, rhs, signature="dd->d")
            assert got.dtype == f8 and got.tobytes() == want.tobytes()
        assert "signature" not in seb._source(4, 3)


def ball_bytes(pts):
    center, radius = seb_center(pts)
    return center.tobytes(), radius


class TestSupportPool:
    """seb_center takes its support from a per-size pool and puts it back;
    a pooled support's stale rows and Gram entries are never read."""

    def test_stale_rows_of_a_deeper_call_are_not_read(self, monkeypatch):
        monkeypatch.setattr(seb, "_POOLS", [[] for _ in seb._POOLS])
        pool = seb._POOLS[5]
        # six points in R^5 whose first two visits are the diametral pair,
        # so the ball is found at depth 2 and kept
        order = seb._visit_order(6)
        shallow = 0.1 * np.random.default_rng(2).standard_normal((6, 5))
        shallow[order[0]] = [10.0, 0.0, 0.0, 0.0, 0.0]
        shallow[order[1]] = [-10.0, 0.0, 0.0, 0.0, 0.0]
        want = ball_bytes(shallow)
        (sup,) = pool
        assert sup.rows[0] is not None and sup.rows[1:] == [None] * 4
        deep = np.random.default_rng(5).standard_normal((40, 5))
        want_deep = ball_bytes(deep)
        assert pool == [sup] and sup.rows[4] is not None  # it reached depth 5
        assert ball_bytes(shallow) == want and pool == [sup]
        # every entry a push reads it wrote first in the same call
        sup.r0, sup.rows[:] = (math.nan,) * 5, [(math.nan,) * 5] * 5
        sup.gram.fill(math.nan)
        sup.rhs.fill(math.nan)
        assert ball_bytes(shallow) == want and ball_bytes(deep) == want_deep
        assert pool == [sup]

    def test_threads_give_the_sequential_bytes(self):
        rng = np.random.default_rng(200)
        clouds = [rng.standard_normal((int(rng.integers(2, 30)), int(rng.integers(1, 7))))
                  for _ in range(200)]
        want = [ball_bytes(pts) for pts in clouds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                forward = pool.submit(lambda: [ball_bytes(pts) for pts in clouds])
                backward = pool.submit(lambda: [ball_bytes(pts) for pts in clouds[::-1]])
                got = forward.result(), backward.result()[::-1]
        finally:
            sys.setswitchinterval(interval)
        assert got == (want, want)


FRESH = """
import json, sys
from supfix import runner, scenarios, seb
scenarios.validate_scenario(json.loads(sys.argv[1]))
before = seb._kernel.cache_info().currsize
seb.seb_center([[0.0, 0.0], [1.0, 0.0]])
print(json.dumps([before, seb._kernel.cache_info().currsize]))
"""


class TestKernel:
    """Generation of the per-dimension, per-depth code."""

    def test_wide_points_compile_in_bounded_statements(self):
        """A sum of 5000 terms in one expression overflows the compiler's
        recursion; the generated sums carry a partial total instead."""
        pts = np.random.default_rng(5000).standard_normal((3, 5000))
        c, r = seb_center(pts)
        want_c, want_r = recursive_welzl_reference(pts)
        assert np.array_equal(c, want_c) and r == want_r

    def test_the_kernel_cache_is_bounded(self):
        assert 0 < _kernel.cache_info().maxsize <= 256

    def test_nothing_is_generated_at_import(self):
        valid = {"kind": "urns_certificate", "seed": 3}
        src = str(Path(supfix.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", FRESH, json.dumps(valid)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        before, after = json.loads(proc.stdout)
        assert before == 0 < after

    def test_generated_code_has_readable_source(self):
        kernel = _kernel(5, 3)
        filename = "<supfix.seb kernel k=5 s=3>"
        assert kernel.push.__code__.co_filename == kernel.welzl.__code__.co_filename == filename
        source = "".join(linecache.getlines(filename))
        assert source == seb._source(5, 3)
        push = inspect.getsource(kernel.push)
        assert push.startswith("def push(sup, p):") and push in source
        assert "_umath_linalg.solve1(sup.grams[3], sup.rhss[3]" in push
        assert inspect.getsource(kernel.welzl).startswith("def welzl(points, n, sup, center, rad2):")

    def test_a_collected_kernel_leaves_linecache(self):
        filename = "<supfix.seb kernel k=11 s=0>"
        _kernel(11, 0)
        assert filename in linecache.cache
        _kernel.cache_clear()
        gc.collect()
        assert filename not in linecache.cache
