"""Descent iteration tests: exact contraction, exact invariance, traces."""

import csv
import itertools
from fractions import Fraction

import numpy as np
import pytest
from test_boxes import assert_same_box, ref_ball_intersection, ref_box_H
from test_isometries import ref_box_image

from supfix import iterate
from supfix.errors import InvarianceViolationError, SamplingBudgetError, SpaceMismatchError
from supfix.instances import random_box_group, random_fiber_group
from supfix.isometries import (
    ExactForm,
    FiberPermIsometry,
    GroupSpec,
    box_image,
    group_closure,
    orbit,
)
from supfix.iterate import (
    MAX_ITER,
    exact_orbit_diameter,
    fixed_point_residual,
    iterate_box,
    orbit_center_fixed_point,
)
from supfix.runner import run_scenario
from supfix.spaces import SupPoint, sup_distance


def exact_images(isos, x0):
    """g(x0) for every element g of isos, in Fractions: sign * x0[perm] + trans."""
    return [[Fraction(float(g.maps[i, 0, 0])) * Fraction(float(x0.fibers[g.perm[i], 0]))
             + Fraction(float(g.trans[i, 0])) for i in range(g.m)] for g in isos]


def non_group() -> GroupSpec:
    """The identity and a swap-and-shift, stacked with their exact form: the
    swap-and-shift has infinite order, so the two do not close."""
    good = FiberPermIsometry(
        np.array([1, 0]), np.array([[[1.0]], [[1.0]]]), np.array([[0.5], [0.0]])
    )
    return GroupSpec(
        generators=(good,),
        trans=np.array([[[0.0], [0.0]], [[0.5], [0.0]]]),
        exact=ExactForm(np.array([[0, 1], [1, 0]]), np.ones((2, 2), dtype=int), 2,
                        np.array([[0, 0], [1, 0]])),
    )


class TestExactOrbitDiameter:
    def test_matches_float_on_grid_data(self):
        for seed in range(10):
            group, x0 = random_box_group(seed)
            den, nums, spread = exact_orbit_diameter(group, x0)
            pts = orbit(group, x0)
            float_diam = max(
                sup_distance(SupPoint(a), SupPoint(b)) for a in pts.points for b in pts.points
            )
            assert type(spread) is int
            assert spread / den == float_diam  # grid data keeps floats exact
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
        den, nums, spread = exact_orbit_diameter(group, x0)
        coords = exact_images(elements(group), x0)
        assert [[Fraction(int(v), den) for v in row] for row in nums] == coords
        want = max(
            max(abs(a - b) for a, b in zip(p, q)) for p in coords for q in coords
        )
        assert type(spread) is int and Fraction(spread, den) == want
        assert len(nums) == len(group)

    @pytest.mark.parametrize("a, dtype", [(1.5 * 2**62, np.int64), (2.0**63, object)])
    def test_int64_edge(self, a, dtype):
        """Numerators up to the closure's int64 bound stay int64, and the
        spread past it is still exact: the orbit of (a, a) under a
        swap-and-negate is (a, a) and (-a, -a), of spread 2a over den 1."""
        swap_negate = FiberPermIsometry(np.array([1, 0]), -np.ones((2, 1, 1)), np.zeros((2, 1)))
        group = group_closure([swap_negate])
        x0 = SupPoint(np.array([[a], [a]]))
        den, nums, spread = exact_orbit_diameter(group, x0)
        assert nums.dtype == dtype and den == 1 and spread == 2 * int(a)
        fp, trace = iterate_box(group, x0)
        assert trace.terminated == "converged" and trace.diameters_exact[0] == 2 * int(a)
        assert fp.fibers.tolist() == [[0.0], [0.0]]


class TestNoFractionOnBoxCases:
    def test_box_cases_build_no_fraction(self, monkeypatch):
        """The way from a box scenario to its report, A_0 included, stays in
        integers: not one Fraction is built."""
        built = []
        new = Fraction.__new__

        def spy(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        scenarios = [{"kind": "box_fixed_point", "seed": seed, "dim": 1 + seed % 9,
                      "max_order": (2, 48, 512)[seed % 3], "tol": (1e-300, 1e-10, 1e-3)[seed % 3]}
                     for seed in range(20)]
        subnormal = {"lo": [5e-324, -1.5, 1e-310], "hi": [1e-320, 1.25, 3e-310]}
        scenarios.append({"kind": "box_fixed_point", "seed": 4, "dim": 3,  # Python-int orbit
                          "sample_box": subnormal})
        monkeypatch.setattr(Fraction, "__new__", staticmethod(spy))
        codes = [run_scenario(raw)[1] for raw in scenarios]
        monkeypatch.undo()
        assert codes == [0] * len(scenarios)
        assert built == []


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
        with pytest.raises(InvarianceViolationError):
            iterate_box(non_group(), SupPoint(np.array([0.25, -0.75])[:, None]))

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


def ref_descent(group: GroupSpec, x0: SupPoint, tol: float, isos):
    """(boxes, diameters, terminated, center) of iterate_box, from the tests'
    Fraction references: the orbit in Fractions, `ref_ball_intersection`,
    `ref_box_image` under every generator, `ref_box_H` and the Fraction
    midpoints of the last box, rounded by float()."""
    coords = exact_images(isos, x0)
    box = ref_ball_intersection(coords, max(max(col) - min(col) for col in zip(*coords)))
    boxes = [box]
    diams = [max(b - a for a, b in zip(box.lo, box.hi))]
    terminated = "max_iter"
    for _ in range(MAX_ITER):
        assert all(ref_box_image(g, box) == box for g in group.generators)
        if diams[-1] <= Fraction(tol):
            terminated = "converged"
            break
        box = ref_box_H(box, Fraction(1, 2))
        boxes.append(box)
        diams.append(max(b - a for a, b in zip(box.lo, box.hi)))
    center = [float((a + b) / 2) for a, b in zip(box.lo, box.hi)]
    return boxes, diams, terminated, center


TOLERANCES = (1e-300, 1e-30, 1e-10, 1e-3, 1.0)


def box_groups(dim: int, max_order: int, count: int):
    """(group, x0, seed) of the first count seeds whose random_box_group
    meets its order budget (64 coordinates at max_order 48 miss some)."""
    found = []
    for seed in itertools.count():
        try:
            found.append((*random_box_group(seed, dim, max_order), seed))
        except SamplingBudgetError:
            continue
        if len(found) == count:
            return found


class TestDescentAgainstReference:
    """iterate_box gives the reference descent's boxes, Fraction diameters,
    termination and center bytes, on grid seed points and on seed points
    whose magnitudes span 1e-12 to 1e12: their orbits take the Python-int
    path of `exact_images`, over denominators past 2^90."""

    @pytest.mark.parametrize("max_order", [48, 512])
    @pytest.mark.parametrize("dim", [1, 2, 8, 16, 64])
    def test_same_descent(self, dim, max_order, elements):
        python_ints = 0
        for group, grid_x0, seed in box_groups(dim, max_order, 3):
            rng = np.random.default_rng(seed)
            scales = np.geomspace(1e-12, 1e12, dim) if dim > 1 else np.array([1e-12])
            wide_x0 = SupPoint((rng.standard_normal(dim) * rng.permutation(scales))[:, None])
            isos = elements(group)
            for i, x0 in enumerate((grid_x0, wide_x0)):
                tol = TOLERANCES[(2 * seed + i + dim) % len(TOLERANCES)]
                den, nums, _ = exact_orbit_diameter(group, x0)
                python_ints += nums.dtype == object and den >= 2**90
                fp, trace = iterate_box(group, x0, tol=tol)
                boxes, diams, terminated, center = ref_descent(group, x0, tol, isos)
                assert trace.terminated == terminated
                assert len(trace.boxes) == len(boxes)
                for got, want in zip(trace.boxes, boxes):
                    assert_same_box(got, want)
                assert all(type(d) is Fraction for d in trace.diameters_exact)
                assert trace.diameters_exact == tuple(diams)
                assert fp.fibers[:, 0].tobytes() == np.array(center).tobytes()
        assert python_ints > 0


class TestEveryIterateIsChecked:
    """iterate_box checks every iterate under every generator through
    the public box_image, so a faster descent cannot drop a check unnoticed."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        seen = []

        def counted(g, box):
            seen.append((g, box))
            return box_image(g, box)

        monkeypatch.setattr(iterate, "box_image", counted)
        return seen

    @pytest.mark.parametrize("seed", range(8))
    def test_converged_run(self, seed, calls):
        group, x0 = random_box_group(seed, dim=2 + seed, max_order=48)
        _, trace = iterate_box(group, x0)
        assert trace.terminated == "converged"
        steps = len(trace.boxes) - 1
        assert len(calls) == (steps + 1) * len(group.generators)
        want = [(g, box) for box in trace.boxes for g in group.generators]
        assert all(g is h and box is b for (g, box), (h, b) in zip(calls, want))

    def test_max_iter_run_checks_its_last_box(self, calls):
        """A run that never converges holds MAX_ITER + 1 boxes, and each one,
        the last included, is checked under every generator."""
        group, x0 = random_box_group(3)
        _, trace = iterate_box(group, x0, tol=-1.0)
        assert trace.terminated == "max_iter"
        assert len(trace.boxes) == MAX_ITER + 1
        assert len(calls) == len(trace.boxes) * len(group.generators)
        want = [(g, box) for box in trace.boxes for g in group.generators]
        assert all(g is h and box is b for (g, box), (h, b) in zip(calls, want))

    def test_generator_breaking_only_the_last_box_raises(self, monkeypatch):
        """The last box of a max_iter run is checked like every other: a
        generator that moves only that box stops the run."""
        group, x0 = random_box_group(3)
        last = len(group.generators) * MAX_ITER  # calls made before the last box's
        seen = []

        def breaks_last(g, box):
            seen.append(box)
            image = box_image(g, box)
            return image if len(seen) <= last or g is not group.generators[-1] else seen[0]

        monkeypatch.setattr(iterate, "box_image", breaks_last)
        gi = len(group.generators) - 1
        with pytest.raises(InvarianceViolationError, match=f"generator {gi}"):
            iterate_box(group, x0, tol=-1.0)
        assert len(seen) == last + len(group.generators)

    def test_non_group_raises_at_the_first_check(self, calls):
        group = non_group()
        with pytest.raises(InvarianceViolationError, match="generator 0"):
            iterate_box(group, SupPoint(np.array([0.25, -0.75])[:, None]))
        assert len(calls) == 1 and calls[0][0] is group.generators[0]


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
