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
from supfix.seb import _SHUFFLE_SEED, _dist2, _solve_errstate, _Support, seb_center


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


def exactness_clouds(case, rng):
    """Inputs on which seb_center must match the recursive reference.

    An integer k gives random and grid clouds in R^k.  certify_k4 and
    certify_k5 are shaped like the fibers of the benchmark's 50-point
    certificate clouds.  2T_quaternions, B3_orbit and heptagon are
    cospherical: every point lies within rounding of the boundary, where
    the inside test cannot be settled by `math.dist` and must fall back to
    the exact squared distance.  ulp_boundary has one point on which the
    two distances disagree.
    """
    if isinstance(case, int):
        return [pts for n in (2, 3, 7, 15, 40)
                for pts in (rng.standard_normal((n, case)),
                            rng.integers(-4, 5, size=(n, case)) * 0.25)]  # duplicates, degenerate sets
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


ULP_BOUNDARY_CLOUD = [
    ["0x1.427a31c1ffc58p-10", "0x1.31ea59a5b303ep-2", "-0x1.18b7980d81558p-2"],
    ["-0x1.c7fba74b18102p-1", "-0x1.d19537e309692p-2", "-0x1.fbb918e5cd3f0p-1"],
    ["0x1.ecb246c7071e5p-5", "0x1.571858a941e07p+0", "-0x1.f804fc5039525p-2"],
    ["-0x1.3daee2d56e58bp-1", "0x1.f5992787010aap-2", "0x1.6d73c9b1a8b33p-2"],
    ["0x1.afc6d9ffa76cap-4", "-0x1.dc664ebbfd571p-1", "-0x1.df43093500899p-6"],
    ["-0x1.23d74921e4afcp-1", "-0x1.3d97e674b9a4ap-1", "-0x1.5c685d3d362f8p+0"],
    ["0x1.63fec7c2015e9p-1", "-0x1.581e71cf65997p+0", "-0x1.d49939df35222p-2"],
]


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

    @pytest.mark.parametrize("case", [1, 2, 3, 5, 8, "certify_k4", "certify_k5",
                                      "2T_quaternions", "B3_orbit", "heptagon", "ulp_boundary"])
    def test_loop_form_matches_recursive_reference_exactly(self, rng, case):
        for pts in exactness_clouds(case, rng):
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

    @pytest.mark.parametrize("pts", [[[1.0, np.nan]], [[0.0, 0.0], [np.nan, 1.0], [2.0, 0.0]],
                                     [[0.0], [np.inf]]])
    def test_non_finite_points_are_refused(self, pts):
        """They once gave a NaN center, or a NaN center with radius 0."""
        with pytest.raises(ValueError, match="must be finite"):
            seb_center(pts)

    @pytest.mark.parametrize("pts", [[[0.0], [1.2e154]], [[0.0, 0.0], [1.2e154, 0.0], [0.0, 1.2e154]],
                                     [[0.0], [1e200]], [[-1e308], [1e308]]])
    def test_points_too_far_apart_are_refused(self, pts):
        """Their Gram entries overflow; they once gave a wrong or NaN center."""
        with pytest.raises(OverflowError):
            seb_center(pts)


def push_all(points):
    """Push the points as supports 0, 1, ... under seb_center's solve state;
    returns the last circumball and the support."""
    sup = _Support(len(points[0]))
    with _solve_errstate():
        for s, p in enumerate(points):
            ball = sup.push(s, tuple(p))
    return ball, sup


def center_from(sup, lam):
    """The center r_0 + sum_i lam_i a_i, summed as _Support.push sums it."""
    acc = [0.0] * len(sup.r0)
    for l, a in zip(lam, sup.rows):
        acc = [c + l * x for c, x in zip(acc, a)]
    return tuple([x0 + c for x0, c in zip(sup.r0, acc)])


class TestSupportSolve:
    """_Support.push calls the LAPACK gufunc under np.linalg.solve directly."""

    def test_singular_gram_takes_the_lstsq_fallback(self, monkeypatch):
        """Collinear supports make the 2 x 2 Gram [[2, 4], [4, 8]] exactly singular."""
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **kw: calls.append(1) or lstsq(*a, **kw))
        (center, rad2), sup = push_all([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        assert calls == [1]
        gram, rhs = sup.gram[:2, :2], sup.rhs[:2]
        assert gram.tolist() == [[2.0, 4.0], [4.0, 8.0]]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(gram, rhs)
        want = center_from(sup, lstsq(gram, rhs, rcond=None)[0].tolist())
        assert center == want and all(map(math.isfinite, center))
        assert rad2 == _dist2(want, sup.r0)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_regular_grams_solve_as_np_linalg_solve(self, rng, k):
        for _ in range(40):
            pts = rng.standard_normal((k + 1, k)) * 10.0 ** rng.integers(-3, 4)
            for s in range(2, k + 1):
                (center, _), sup = push_all(pts[:s + 1])
                lam = np.linalg.solve(sup.gram[:s, :s], sup.rhs[:s])
                assert np.array(center).tobytes() == np.array(center_from(sup, lam.tolist())).tobytes()

    def test_seb_center_pushes_under_the_solve_state(self, rng, monkeypatch):
        """The state np.linalg.solve sets around the gufunc: invalid (a
        singular matrix) raises LinAlgError, the other flags are ignored."""
        seen = []
        push = _Support.push

        def spy(sup, s, p):
            seen.append((np.geterr(), np.geterrcall()))
            return push(sup, s, p)

        monkeypatch.setattr(_Support, "push", spy)
        seb_center(rng.standard_normal((12, 3)))
        assert len(seen) >= 4
        for state, callback in seen:
            assert state == {"divide": "ignore", "over": "ignore", "under": "ignore", "invalid": "call"}
            with pytest.raises(np.linalg.LinAlgError):
                callback("invalid", 8)
