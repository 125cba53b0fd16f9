"""Isometry algebra and group closure tests.

Composition and inversion are checked pointwise against direct
evaluation, which is the defining property and needs no knowledge of the
internal data layout.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from test_boxes import assert_same_box
from test_groups import EXTRA_GENERATORS

from supfix.boxes import Box
from supfix.errors import GroupNotClosedError, SpaceMismatchError
from supfix.instances import (
    random_box_group,
    random_fiber_group,
    random_inner_derivation,
    unitary_group,
)
from supfix.isometries import (
    FiberPermIsometry,
    GroupSpec,
    _probe_cloud,
    _signature,
    box_image,
    compose,
    group_closure,
    invert,
    orbit,
)
from supfix.iterate import exact_orbit_diameter, fixed_point_residual
from supfix.spaces import PointCloud, SupPoint, cloud_diameter, sup_distance
from supfix.unitary import unitary_closure
from supfix.witnesses import build_affine_action


def random_iso(rng, m, k) -> FiberPermIsometry:
    perm = rng.permutation(m)
    maps = []
    for _ in range(m):
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        maps.append(q)
    return FiberPermIsometry(perm, np.stack(maps), rng.standard_normal((m, k)))


def element_index(group, iso: FiberPermIsometry) -> int:
    """Index of the element of `group` equal to iso, compared as the closure
    compares them: by the images of its probe cloud, within group.tol."""
    probes = _probe_cloud(group.m, group.k)
    sig = _signature(iso, probes)
    for i, e in enumerate(group.elements):
        if np.allclose(_signature(e, probes), sig, atol=group.tol, rtol=0.0):
            return i
    raise KeyError("isometry is not an element of the group")


def rotation_by_one_radian() -> FiberPermIsometry:
    c, s = np.cos(1.0), np.sin(1.0)
    return FiberPermIsometry(np.array([0]), np.array([[[c, -s], [s, c]]]), np.zeros((1, 2)))


class TestFiberPermIsometry:
    def test_identity_fixes_points(self, rng):
        e = FiberPermIsometry.identity(4, 3)
        x = SupPoint(rng.standard_normal((4, 3)))
        assert sup_distance(e(x), x) == 0.0

    def test_preserves_sup_distance(self, rng):
        for _ in range(20):
            iso = random_iso(rng, 5, 3)
            x = SupPoint(rng.standard_normal((5, 3)))
            y = SupPoint(rng.standard_normal((5, 3)))
            assert sup_distance(iso(x), iso(y)) == pytest.approx(
                sup_distance(x, y), abs=1e-12
            )

    def test_rejects_non_orthogonal_maps(self):
        with pytest.raises(ValueError):
            FiberPermIsometry(np.array([0]), np.array([[[2.0]]]), np.zeros((1, 1)))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            FiberPermIsometry(np.array([0, 0]), np.tile(np.eye(1), (2, 1, 1)), np.zeros((2, 1)))

    def test_shape_mismatch_on_apply(self, rng):
        iso = random_iso(rng, 3, 2)
        with pytest.raises(SpaceMismatchError):
            iso(SupPoint(np.zeros((2, 2))))


class TestComposeInvert:
    def test_compose_matches_pointwise(self, rng):
        for _ in range(20):
            a, b = random_iso(rng, 4, 2), random_iso(rng, 4, 2)
            x = SupPoint(rng.standard_normal((4, 2)))
            assert sup_distance(compose(a, b)(x), a(b(x))) <= 1e-12

    def test_invert_round_trips(self, rng):
        for _ in range(20):
            a = random_iso(rng, 5, 3)
            x = SupPoint(rng.standard_normal((5, 3)))
            assert sup_distance(invert(a)(a(x)), x) <= 1e-12
            assert sup_distance(a(invert(a)(x)), x) <= 1e-12

    def test_compose_associative(self, rng):
        a, b, c = (random_iso(rng, 3, 2) for _ in range(3))
        x = SupPoint(rng.standard_normal((3, 2)))
        lhs = compose(compose(a, b), c)(x)
        rhs = compose(a, compose(b, c))(x)
        assert sup_distance(lhs, rhs) <= 1e-12


class TestGroupClosure:
    def test_cyclic_rotation_of_coordinates(self):
        # the 3-cycle on coordinates generates a group of order 3
        g = FiberPermIsometry(np.array([1, 2, 0]), np.ones((3, 1, 1)), np.zeros((3, 1)))
        group = group_closure([g])
        assert len(group) == 3
        assert group.words[0] == ()
        assert "e" in group.labels

    def test_adding_global_flip_doubles(self):
        g = FiberPermIsometry(np.array([1, 2, 0]), np.ones((3, 1, 1)), np.zeros((3, 1)))
        flip = FiberPermIsometry(np.arange(3), -np.ones((3, 1, 1)), np.zeros((3, 1)))
        group = group_closure([g, flip])
        assert len(group) == 6

    def test_signed_two_cycle_order_four(self):
        # swap with one sign flip squares to a flip, order 4
        g = FiberPermIsometry(
            np.array([1, 0]), np.array([[[1.0]], [[-1.0]]]), np.zeros((2, 1))
        )
        assert len(group_closure([g])) == 4

    def test_elements_closed_under_products(self, rng):
        g = FiberPermIsometry(
            np.array([1, 0, 2]),
            np.array([[[1.0]], [[-1.0]], [[-1.0]]]),
            np.zeros((3, 1)),
        )
        group = group_closure([g])
        for a in group.elements:
            for b in group.elements:
                assert element_index(group, compose(a, b)) is not None

    def test_inverse_in_group(self):
        g = FiberPermIsometry(np.array([1, 2, 3, 0]), np.ones((4, 1, 1)), np.zeros((4, 1)))
        group = group_closure([g])
        for a in group.elements:
            element_index(group, invert(a))

    def test_infinite_order_raises(self):
        with pytest.raises(GroupNotClosedError):
            group_closure([rotation_by_one_radian()], cap=64)

    def test_words_multiply_out(self):
        g = FiberPermIsometry(
            np.array([1, 0]), np.array([[[-1.0]], [[1.0]]]), np.array([[0.25], [-0.5]])
        )
        group = group_closure([g])
        x = SupPoint(np.array([[0.3], [0.7]]))
        for iso, word in zip(group.elements, group.words):
            built = FiberPermIsometry.identity(2, 1)
            for i in word:
                built = compose(built, group.generators[i])
            assert sup_distance(iso(x), built(x)) <= 1e-12


class TestOrbit:
    def test_orbit_size_and_diameter(self, rng):
        g = FiberPermIsometry(np.array([1, 2, 0]), np.ones((3, 1, 1)), np.zeros((3, 1)))
        group = group_closure([g])
        x = SupPoint(rng.standard_normal((3, 1)))
        cloud = orbit(group, x)
        assert len(cloud) == 3

    def test_orbit_of_fixed_point_is_constant(self):
        flip = FiberPermIsometry(np.arange(2), -np.ones((2, 1, 1)), np.zeros((2, 1)))
        group = group_closure([flip])
        assert cloud_diameter(orbit(group, SupPoint.of([0.0, 0.0]))) == 0.0


class TestBoxImage:
    def test_matches_corner_transport_exactly(self, rng):
        """Transport the corners through the isometry; the image box must be
        their exact bounding box."""
        for _ in range(25):
            m = 3
            perm = rng.permutation(m)
            signs = rng.choice([-1.0, 1.0], size=m)
            trans = rng.integers(-8, 9, size=(m, 1)) / 4.0
            iso = FiberPermIsometry(perm, signs.reshape(m, 1, 1), trans)
            lo = rng.integers(-8, 0, size=m) / 4.0
            hi = lo + rng.integers(1, 9, size=m) / 4.0
            box = Box.bounds(lo, hi)
            img = box_image(iso, box)
            corner_images = []
            for corner in itertools.product(*zip(lo, hi)):
                pt = iso(SupPoint(np.array(corner)[:, None]))
                corner_images.append([Fraction(float(v)) for v in pt.fibers[:, 0]])
            for i in range(m):
                vals = [ci[i] for ci in corner_images]
                assert img.lo[i] == min(vals)
                assert img.hi[i] == max(vals)

    def test_preserves_diameter(self):
        iso = FiberPermIsometry(
            np.array([1, 0]), np.array([[[-1.0]], [[1.0]]]), np.array([[0.5], [0.25]])
        )
        box = Box.bounds([0.0, -1.0], [2.0, 0.5])
        assert box_image(iso, box).diameter() == box.diameter()

    def test_rejects_wide_fibers(self, rng):
        iso = random_iso(rng, 2, 2)
        with pytest.raises(SpaceMismatchError):
            box_image(iso, Box.bounds([0, 0], [1, 1]))

    def test_empty_passes_through(self):
        iso = FiberPermIsometry(np.array([0]), np.ones((1, 1, 1)), np.zeros((1, 1)))
        assert box_image(iso, Box.empty(1)).is_empty


# -- reference forms ------------------------------------------------------------
# The per-element loops and Fraction arithmetic that the stacked gathers and
# the integer box images replaced; the fast forms must match them byte for byte.


def ref_box_image(iso: FiberPermIsometry, box: Box) -> Box:
    if box.is_empty:
        return Box.empty(box.dim)
    lo_out, hi_out = [], []
    for g in range(iso.m):
        s = float(iso.maps[g, 0, 0])
        t = Fraction(float(iso.trans[g, 0]))
        a, b = box.lo[iso.perm[g]], box.hi[iso.perm[g]]
        if s > 0:
            lo_out.append(a + t)
            hi_out.append(b + t)
        else:
            lo_out.append(-b + t)
            hi_out.append(-a + t)
    return Box(box.dim, tuple(lo_out), tuple(hi_out))


def ref_orbit(group, x) -> PointCloud:
    return PointCloud.from_iter(g(x) for g in group.elements)


def ref_exact_orbit_diameter(group, x0):
    pts = [g(x0) for g in group.elements]
    coords = np.stack([p.fibers[:, 0] for p in pts])
    diam = max(
        Fraction(float(hi)) - Fraction(float(lo))
        for lo, hi in zip(coords.min(axis=0), coords.max(axis=0))
    )
    return pts, diam


def ref_fixed_point_residual(group, x) -> float:
    return max(sup_distance(g(x), x) for g in group.elements)


def witness_group(name: str):
    """The realified affine-action group of a random inner derivation (k = 4)."""
    group = unitary_group(name) if name == "q8" else unitary_closure(EXTRA_GENERATORS[name])
    data, _ = random_inner_derivation(group, 11)
    return build_affine_action(data).group_spec


def spread_points(rng, m, k, count=4):
    """Points with coordinates on the data grid, at magnitudes 1e-12..1e12, and subnormal."""
    yield SupPoint(rng.integers(-2**17, 2**17, size=(m, k)) * 2.0**-16)
    for _ in range(count):
        yield SupPoint(rng.standard_normal((m, k)) * 10.0 ** rng.integers(-12, 13, size=(m, 1)))
    yield SupPoint(rng.integers(-40, 40, size=(m, k)) * 5e-324)


def assert_stacked_forms_match(group, x):
    got, want = orbit(group, x), ref_orbit(group, x)
    assert got.stack().tobytes() == want.stack().tobytes()
    assert repr(fixed_point_residual(group, x)) == repr(ref_fixed_point_residual(group, x))
    if group.k == 1:
        pts, diam = exact_orbit_diameter(group, x)
        ref_pts, ref_diam = ref_exact_orbit_diameter(group, x)
        assert [p.fibers.tobytes() for p in pts] == [p.fibers.tobytes() for p in ref_pts]
        assert type(diam) is Fraction and diam.as_integer_ratio() == ref_diam.as_integer_ratio()


class TestStackedFormsMatchPerElement:
    @pytest.mark.parametrize("seed", range(8))
    def test_box_groups(self, seed):
        group, x0 = random_box_group(seed, dim=2 + seed)
        rng = np.random.default_rng(seed)
        assert_stacked_forms_match(group, x0)
        for x in spread_points(rng, group.m, 1):
            assert_stacked_forms_match(group, x)

    @pytest.mark.parametrize("seed", range(6))
    def test_fiber_groups(self, seed):
        group, x0 = random_fiber_group(seed)
        assert group.k == 3
        rng = np.random.default_rng(seed)
        assert_stacked_forms_match(group, x0)
        for x in spread_points(rng, group.m, 3):
            assert_stacked_forms_match(group, x)

    @pytest.mark.parametrize("name", ["q8", "2T", "2I"])
    def test_witness_groups(self, name):
        group = witness_group(name)
        assert group.k == 4
        rng = np.random.default_rng(len(group))
        assert_stacked_forms_match(group, SupPoint(np.zeros((group.m, group.k))))
        for x in spread_points(rng, group.m, 4, count=2):
            assert_stacked_forms_match(group, x)

    def test_non_finite_images_are_refused(self):
        """g(x) refuses an image that overflows; so do the stacked forms."""
        g = FiberPermIsometry(np.array([0]), np.ones((1, 1, 1)), np.array([[1e308]]))
        group = GroupSpec((g,), (FiberPermIsometry.identity(1, 1), g), ((), (0,)))
        x = SupPoint.of([1e308])
        for fn in (orbit, fixed_point_residual, exact_orbit_diameter):
            with pytest.raises(ValueError, match="finite"):
                fn(group, x)

    def test_shape_mismatch(self):
        group, _ = random_box_group(3, dim=4)
        for fn in (orbit, fixed_point_residual, exact_orbit_diameter):
            with pytest.raises(SpaceMismatchError):
                fn(group, SupPoint.of([0.0, 1.0]))


class TestBoxImageAgainstFractionForm:
    @pytest.mark.parametrize("seed", range(6))
    def test_group_elements_on_shrinking_boxes(self, seed):
        group, x0 = random_box_group(seed)
        rng = np.random.default_rng(seed)
        lo = x0.flat() - rng.uniform(0, 2, size=group.m)
        box = Box.bounds(lo, lo + rng.uniform(0, 2, size=group.m))
        for _ in range(12):
            for g in group.elements:
                assert_same_box(box_image(g, box), ref_box_image(g, box))
            box = Box(box.dim, tuple(a / 3 for a in box.lo), tuple(b / 3 + Fraction(1, 2**70)
                                                                 for b in box.hi))

    def test_subnormal_and_large_translations(self, rng):
        for scale in (5e-324, 1e-12, 1e12):
            m = 5
            trans = rng.integers(-9, 9, size=(m, 1)) * scale
            iso = FiberPermIsometry(rng.permutation(m), rng.choice([-1.0, 1.0], size=(m, 1, 1)),
                                    trans)
            lo = [Fraction(int(v), 3) for v in rng.integers(-9, 9, size=m)]
            box = Box.bounds(lo, [a + Fraction(1, 7) for a in lo])
            assert_same_box(box_image(iso, box), ref_box_image(iso, box))

    def test_rejects_non_unit_signs(self):
        near = FiberPermIsometry(np.array([1, 0]), np.array([[[1.0]], [[-1.0 + 1e-12]]]),
                                 np.zeros((2, 1)))
        with pytest.raises(ValueError, match="exactly"):
            box_image(near, Box.bounds([0, 0], [1, 1]))


class TestTrustedProducts:
    """compose and invert skip the constructor's checks; their output must
    still be what the checking constructor makes of the same arrays."""

    def test_public_constructor_still_checks(self, rng):
        a, b = random_iso(rng, 4, 2), random_iso(rng, 4, 2)
        ab = compose(a, b)
        with pytest.raises(ValueError, match="orthogonal"):
            FiberPermIsometry(ab.perm, 2.0 * ab.maps, ab.trans)
        with pytest.raises(ValueError, match="permutation"):
            FiberPermIsometry(np.zeros(4, dtype=int), ab.maps, ab.trans)
        with pytest.raises(SpaceMismatchError):
            FiberPermIsometry(ab.perm, ab.maps[:, :1, :1], ab.trans)

    def test_compose_across_spaces_raises(self, rng):
        with pytest.raises(SpaceMismatchError):
            compose(random_iso(rng, 4, 2), random_iso(rng, 3, 2))
        with pytest.raises(SpaceMismatchError):
            compose(random_iso(rng, 3, 1), random_iso(rng, 3, 2))

    @pytest.mark.parametrize("k", [1, 3])
    def test_outputs_read_only_and_equal_to_checked(self, k, rng):
        for _ in range(10):
            a, b = random_iso(rng, 5, k), random_iso(rng, 5, k)
            for out in (compose(a, b), invert(a), invert(compose(b, a))):
                checked = FiberPermIsometry(out.perm.copy(), out.maps.copy(), out.trans.copy())
                for name in ("perm", "maps", "trans"):
                    arr, ref = getattr(out, name), getattr(checked, name)
                    assert not arr.flags.writeable
                    assert arr.dtype == ref.dtype and arr.shape == ref.shape
                    assert np.array_equal(arr, ref)
                    with pytest.raises(ValueError):
                        arr[...] = 0
