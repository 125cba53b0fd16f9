"""Descent iteration tests: exact contraction, exact invariance, traces."""

import csv
from fractions import Fraction

import numpy as np
import pytest

from supfix.errors import InvarianceViolationError, SpaceMismatchError
from supfix.instances import random_box_group, random_fiber_group
from supfix.isometries import ExactForm, FiberPermIsometry, GroupSpec, box_image, orbit
from supfix.iterate import (
    exact_orbit_diameter,
    fixed_point_residual,
    iterate_box,
    orbit_center_fixed_point,
)
from supfix.spaces import SupPoint, sup_distance


def exact_images(isos, x0):
    """g(x0) for every element g of isos, in Fractions: sign * x0[perm] + trans."""
    return [[Fraction(float(g.maps[i, 0, 0])) * Fraction(float(x0.fibers[g.perm[i], 0]))
             + Fraction(float(g.trans[i, 0])) for i in range(g.m)] for g in isos]


class TestExactOrbitDiameter:
    def test_matches_float_on_grid_data(self):
        for seed in range(10):
            group, x0 = random_box_group(seed)
            den, nums, diam = exact_orbit_diameter(group, x0)
            pts = orbit(group, x0)
            float_diam = max(
                sup_distance(SupPoint(a), SupPoint(b)) for a in pts.points for b in pts.points
            )
            assert float(diam) == float_diam  # grid data keeps floats exact
            assert nums.dtype == np.int64 and np.array_equal(nums / den, pts.points[:, :, 0])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pairwise_fractions(self, seed, elements):
        """Per-coordinate spread equals the largest pairwise Fraction distance
        of the exact images, also off the grid, where float images round."""
        group, x0 = random_box_group(seed, dim=2 + seed % 7)
        if seed % 2:  # magnitudes far apart, so float images round
            rng = np.random.default_rng(seed)
            scale = 10.0 ** rng.integers(-12, 12, size=(group.m, 1))
            x0 = SupPoint(rng.standard_normal((group.m, 1)) * scale)
        den, nums, diam = exact_orbit_diameter(group, x0)
        coords = exact_images(elements(group), x0)
        assert [[Fraction(int(v), den) for v in row] for row in nums] == coords
        want = max(
            max(abs(a - b) for a, b in zip(p, q)) for p in coords for q in coords
        )
        assert isinstance(diam, Fraction) and diam == want
        assert len(nums) == len(group)


class TestIterateBox:
    @pytest.mark.parametrize("seed", range(12))
    def test_descent_halves_exactly_and_converges(self, seed):
        group, x0 = random_box_group(seed)
        fp, trace = iterate_box(group, x0)
        assert trace.terminated == "converged"
        diams = trace.diameters_exact
        for a, b in zip(diams, diams[1:]):
            assert b <= a / 2  # Fraction comparison, no tolerance
        assert fixed_point_residual(group, fp) <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_iterates_stay_invariant(self, seed, elements):
        group, x0 = random_box_group(seed)
        isos = elements(group)
        _, trace = iterate_box(group, x0)
        for box in trace.boxes:
            for g in isos:
                assert box_image(g, box) == box

    def test_iterates_are_nested(self):
        group, x0 = random_box_group(21)
        _, trace = iterate_box(group, x0)
        for outer, inner in zip(trace.boxes, trace.boxes[1:]):
            for a, b, c, d in zip(outer.lo, inner.lo, inner.hi, outer.hi):
                assert a <= b <= c <= d

    def test_fixed_point_in_final_box(self):
        group, x0 = random_box_group(33)
        fp, trace = iterate_box(group, x0)
        assert trace.boxes[-1].contains(fp.fibers[:, 0], tol=1e-12)

    def test_float_diameters_halve_too(self):
        """Rounding to float preserves the halving chain because rounding is
        monotone and halving a float is exact."""
        group, x0 = random_box_group(8)
        _, trace = iterate_box(group, x0)
        diams = [float(d) for d in trace.diameters_exact]
        for a, b in zip(diams, diams[1:]):
            assert b <= a / 2

    def test_seed_point_already_fixed(self):
        group, x0 = random_box_group(2)
        fp, _ = iterate_box(group, x0)
        fp2, trace2 = iterate_box(group, fp)
        assert trace2.diameters_exact[0] <= Fraction(1, 10**9)
        assert sup_distance(fp, fp2) <= 1e-9

    def test_requires_k1(self):
        group, x0 = random_fiber_group(1)
        with pytest.raises(SpaceMismatchError):
            iterate_box(group, x0)

    def test_non_group_data_raises_invariance_error(self):
        """A hand-built 'group' whose elements do not close must be caught by
        the exact invariance check, not silently iterated."""
        good = FiberPermIsometry(
            np.array([1, 0]), np.array([[[1.0]], [[1.0]]]), np.array([[0.5], [0.0]])
        )
        fake = GroupSpec(  # the identity and good, stacked, with their exact form
            generators=(good,),
            perm=np.array([[0, 1], [1, 0]]),
            maps=np.ones((2, 2, 1, 1)),
            trans=np.array([[[0.0], [0.0]], [[0.5], [0.0]]]),
            words=((), (0,)),
            exact=ExactForm(np.array([[0, 1], [1, 0]]), np.ones((2, 2), dtype=int), 2,
                            np.array([[0, 0], [1, 0]])),
        )
        with pytest.raises(InvarianceViolationError):
            iterate_box(fake, SupPoint.of([0.25, -0.75]))

    def test_trace_csv_round_trip(self, tmp_path):
        group, x0 = random_box_group(5)
        _, trace = iterate_box(group, x0)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["step", "diameter"]
        assert len(rows) == len(trace.boxes) + 1
        for i, row in enumerate(rows[1:]):
            assert int(row[0]) == i
            assert float(row[1]) == float(trace.diameters_exact[i])


class TestResidualBytes:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_residual_bytes_match_old_expression(self, awkward_clouds, k):
        """fixed_point_residual through `_fiber_distances` against the old
        sum-of-squares expression, on points near 1e308 too, whose
        distances to their images overflow to inf without a warning."""
        group, x0 = random_fiber_group(k, fibers=3, fiber_dim=k, max_order=16)
        points = [x0, orbit_center_fixed_point(group, x0)]
        points += [SupPoint(row[:3]) for pts in awkward_clouds(k).values() for row in pts[:2]]
        for x in points:
            with np.errstate(over="ignore"):  # the reference expression warns
                diff = group.images(x) - x.fibers
                want = float(np.sqrt(np.sum(diff * diff, axis=2)).max())
            assert repr(fixed_point_residual(group, x)) == repr(want)


class TestOrbitCenterFixedPoint:
    @pytest.mark.parametrize("seed", range(10))
    def test_fiber_groups_fixed_to_tolerance(self, seed):
        group, x0 = random_fiber_group(seed)
        z = orbit_center_fixed_point(group, x0)
        assert fixed_point_residual(group, z) <= 1e-9

    def test_agrees_with_box_descent_on_k1(self):
        """Two entirely different constructions must land on a common fixed
        point set; with the full group acting, both residuals vanish."""
        group, x0 = random_box_group(17)
        fp_iter, _ = iterate_box(group, x0)
        fp_center = orbit_center_fixed_point(group, x0)
        assert fixed_point_residual(group, fp_center) <= 1e-9
        assert fixed_point_residual(group, fp_iter) <= 1e-9

    def test_already_fixed_point_returned(self):
        group, _ = random_fiber_group(4)
        z0 = orbit_center_fixed_point(group, SupPoint(np.zeros((group.m, group.k))))
        z1 = orbit_center_fixed_point(group, z0)
        assert sup_distance(z0, z1) <= 1e-9
