"""Isometry algebra and group closure tests.

Composition is checked pointwise against direct evaluation, which is the
defining property and needs no knowledge of the internal data layout.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_boxes import BOUND, PROPERTY_SETTINGS, assert_same_box, boxes
from test_groups import EXTRA_GENERATORS

from supfix import isometries
from supfix.boxes import Box
from supfix.errors import GroupNotClosedError, SpaceMismatchError
from supfix.instances import (
    GRID_RANGE,
    random_box_group,
    random_fiber_group,
    random_inner_derivation,
    unitary_group,
)
from supfix.isometries import (
    _CLOSURE_TOL,
    _ORTHO_TOL,
    FiberPermIsometry,
    GroupSpec,
    _exact_table,
    _orthogonal,
    _probe_cloud,
    _probe_gap,
    _signature,
    _translation_limit,
    box_image,
    compose,
    group_closure,
    orbit,
)
from supfix.groups import word_labels
from supfix.iterate import exact_orbit_diameter, fixed_point_residual
from supfix.scenarios import SCENARIO_SCHEMAS
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


def element_index(isos, iso: FiberPermIsometry) -> int:
    """Index of the element among isos equal to iso, compared as the closure
    compares them: by the images of its probe cloud, within _CLOSURE_TOL."""
    probes = _probe_cloud(iso.m, iso.k)
    sig = _signature(iso, probes)
    for i, e in enumerate(isos):
        if np.allclose(_signature(e, probes), sig, atol=_CLOSURE_TOL, rtol=0.0):
            return i
    raise KeyError("isometry is not an element of the group")


def rotation_by_one_radian() -> FiberPermIsometry:
    c, s = np.cos(1.0), np.sin(1.0)
    return FiberPermIsometry(np.array([0]), np.array([[[c, -s], [s, c]]]), np.zeros((1, 2)))


class TestFiberPermIsometry:
    def test_identity_fixes_points(self, rng):
        e = FiberPermIsometry.identity(4, 3)
        x = SupPoint(rng.standard_normal((4, 3)))
        assert sup_distance(apply(e, x), x) == 0.0

    def test_preserves_sup_distance(self, rng):
        for _ in range(20):
            iso = random_iso(rng, 5, 3)
            x = SupPoint(rng.standard_normal((5, 3)))
            y = SupPoint(rng.standard_normal((5, 3)))
            assert sup_distance(apply(iso, x), apply(iso, y)) == pytest.approx(
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
            apply(iso, SupPoint(np.zeros((2, 2))))

    def test_overflowed_image_refused_without_warning(self):
        """The suite turns RuntimeWarning into an error, so an overflow
        warning from the sum would fail this test before the ValueError."""
        g = FiberPermIsometry(np.array([0]), np.ones((1, 1, 1)), np.array([[1e308]]))
        with pytest.raises(ValueError, match="finite"):
            apply(g, SupPoint.of([1e308]))


class TestComposeInvert:
    def test_compose_matches_pointwise(self, rng):
        for _ in range(20):
            a, b = random_iso(rng, 4, 2), random_iso(rng, 4, 2)
            x = SupPoint(rng.standard_normal((4, 2)))
            assert sup_distance(apply(compose(a, b), x), apply(a, apply(b, x))) <= 1e-12

    def test_compose_associative(self, rng):
        a, b, c = (random_iso(rng, 3, 2) for _ in range(3))
        x = SupPoint(rng.standard_normal((3, 2)))
        lhs = apply(compose(compose(a, b), c), x)
        rhs = apply(compose(a, compose(b, c)), x)
        assert sup_distance(lhs, rhs) <= 1e-12


class TestGroupClosure:
    def test_cyclic_rotation_of_coordinates(self):
        # the 3-cycle on coordinates generates a group of order 3
        g = FiberPermIsometry(np.array([1, 2, 0]), np.ones((3, 1, 1)), np.zeros((3, 1)))
        group = group_closure([g])
        assert len(group) == 3
        assert group.words[0] == ()
        assert "e" in word_labels(group.words)

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

    def test_elements_closed_under_products(self, elements):
        g = FiberPermIsometry(
            np.array([1, 0, 2]),
            np.array([[[1.0]], [[-1.0]], [[-1.0]]]),
            np.zeros((3, 1)),
        )
        isos = elements(group_closure([g]))
        for a in isos:
            for b in isos:
                assert element_index(isos, compose(a, b)) is not None

    def test_inverse_in_group(self, elements):
        """Every element has an inverse among the elements: some b with a b
        equal to the identity, element 0."""
        g = FiberPermIsometry(np.array([1, 2, 3, 0]), np.ones((4, 1, 1)), np.zeros((4, 1)))
        isos = elements(group_closure([g]))
        for a in isos:
            assert any(element_index(isos, compose(a, b)) == 0 for b in isos)

    def test_infinite_order_raises(self):
        with pytest.raises(GroupNotClosedError):
            group_closure([rotation_by_one_radian()], cap=64)

    def test_words_multiply_out(self, elements):
        g = FiberPermIsometry(
            np.array([1, 0]), np.array([[[-1.0]], [[1.0]]]), np.array([[0.25], [-0.5]])
        )
        group = group_closure([g])
        x = SupPoint(np.array([[0.3], [0.7]]))
        for iso, word in zip(elements(group), group.words, strict=True):
            built = FiberPermIsometry.identity(2, 1)
            for i in word:
                built = compose(built, group.generators[i])
            assert sup_distance(apply(iso, x), apply(built, x)) <= 1e-12


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
                pt = apply(iso, SupPoint(np.array(corner)[:, None]))
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


def apply(iso: FiberPermIsometry, x: SupPoint) -> SupPoint:
    """iso(x), one element at a time: (iso x)_g = maps[g] @ x[perm[g]] + trans[g]."""
    if x.m != iso.m or x.k != iso.k:
        raise SpaceMismatchError("point shape does not match isometry")
    with np.errstate(over="ignore"):  # SupPoint refuses an overflowed image
        out = np.einsum("gij,gj->gi", iso.maps, x.fibers[iso.perm]) + iso.trans
    return SupPoint(out)


def ref_orbit(isos, x) -> PointCloud:
    return PointCloud([apply(g, x).fibers for g in isos])


def ref_exact_orbit_diameter(isos, x0):
    """The images sign * x0[perm] + trans in Fractions, and their spread."""
    images = [[Fraction(float(g.maps[i, 0, 0])) * Fraction(float(x0.fibers[g.perm[i], 0]))
               + Fraction(float(g.trans[i, 0])) for i in range(g.m)]
              for g in isos]
    diam = max(max(col) - min(col) for col in zip(*images))
    return images, diam


def ref_fixed_point_residual(isos, x) -> float:
    return max(sup_distance(apply(g, x), x) for g in isos)


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


def assert_stacked_forms_match(group, isos, x):
    """The stacked forms of group against its elements isos, one at a time."""
    got, want = orbit(group, x), ref_orbit(isos, x)
    assert got.points.tobytes() == want.points.tobytes()
    assert repr(fixed_point_residual(group, x)) == repr(ref_fixed_point_residual(isos, x))
    if group.k == 1:
        den, nums, diam = exact_orbit_diameter(group, x)
        ref_images, ref_diam = ref_exact_orbit_diameter(isos, x)
        assert nums.shape == (len(group), group.m)
        assert [[Fraction(int(v), den) for v in row] for row in nums] == ref_images
        assert type(diam) is Fraction and diam.as_integer_ratio() == ref_diam.as_integer_ratio()


class TestStackedFormsMatchPerElement:
    @pytest.mark.parametrize("seed", range(8))
    def test_box_groups(self, seed, elements):
        group, x0 = random_box_group(seed, dim=2 + seed)
        isos = elements(group)
        rng = np.random.default_rng(seed)
        assert_stacked_forms_match(group, isos, x0)
        for x in spread_points(rng, group.m, 1):
            assert_stacked_forms_match(group, isos, x)

    @pytest.mark.parametrize("seed", range(6))
    def test_fiber_groups(self, seed, elements):
        group, x0 = random_fiber_group(seed)
        assert group.k == 3
        isos = elements(group)
        rng = np.random.default_rng(seed)
        assert_stacked_forms_match(group, isos, x0)
        for x in spread_points(rng, group.m, 3):
            assert_stacked_forms_match(group, isos, x)

    @pytest.mark.parametrize("name", ["q8", "2T", "2I"])
    def test_witness_groups(self, name, elements):
        group = witness_group(name)
        assert group.k == 4
        isos = elements(group)
        rng = np.random.default_rng(len(group))
        assert_stacked_forms_match(group, isos, SupPoint(np.zeros((group.m, group.k))))
        for x in spread_points(rng, group.m, 4, count=2):
            assert_stacked_forms_match(group, isos, x)

    def test_non_finite_images_are_refused(self):
        """apply refuses an image that overflows; so do the stacked forms."""
        g = FiberPermIsometry(np.array([0]), np.ones((1, 1, 1)), np.array([[1e308]]))
        group = GroupSpec((g,), np.array([[0], [0]]), np.ones((2, 1, 1, 1)),
                          np.array([[[0.0]], [[1e308]]]), ((), (0,)))
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
    def test_group_elements_on_shrinking_boxes(self, seed, elements):
        group, x0 = random_box_group(seed)
        isos = elements(group)
        rng = np.random.default_rng(seed)
        lo = x0.fibers[:, 0] - rng.uniform(0, 2, size=group.m)
        box = Box.bounds(lo, lo + rng.uniform(0, 2, size=group.m))
        for _ in range(12):
            for g in isos:
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
    """compose and identity skip the constructor's checks; their output must
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
            for out in (compose(a, b), compose(b, a), FiberPermIsometry.identity(5, k)):
                checked = FiberPermIsometry(out.perm.copy(), out.maps.copy(), out.trans.copy())
                for name in ("perm", "maps", "trans"):
                    arr, ref = getattr(out, name), getattr(checked, name)
                    assert not arr.flags.writeable
                    assert arr.dtype == ref.dtype and arr.shape == ref.shape
                    assert np.array_equal(arr, ref)
                    with pytest.raises(ValueError):
                        arr[...] = 0


# -- the einsum forms the closure keeps ------------------------------------------
# Products, signatures and the duplicate scan as they were before the closure
# scanned in place, called c_einsum directly and cached its probe cloud.  The
# closure must give the same elements byte for byte, in the same order.


def ref_probe_cloud(m, k):
    probes = [np.zeros((m, k))]
    one = np.zeros((m, k))
    one[0, 0] = 1.0
    probes.append(one)
    if m > 1 or k > 1:
        probes.append(np.random.default_rng(20240).standard_normal((m, k)))
    return np.stack(probes)


def ref_compose(a, b):
    perm, maps, trans = a
    return (b[0][perm], np.einsum("gij,gjl->gil", maps, b[1][perm]),
            np.einsum("gij,gj->gi", maps, b[2][perm]) + trans)


def ref_signature(iso, probes):
    perm, maps, trans = iso
    return np.einsum("gij,pgj->pgi", maps, probes[:, perm, :]) + trans


def ref_closure(generators, cap, tol=1e-10):
    m, k = generators[0].m, generators[0].k
    gens = [(g.perm, g.maps, g.trans) for g in generators]
    probes = ref_probe_cloud(m, k)
    elements = [(np.arange(m), np.broadcast_to(np.eye(k), (m, k, k)).copy(), np.zeros((m, k)))]
    sigs = np.empty((cap, probes.size))
    sigs[0] = np.ravel(ref_signature(elements[0], probes))
    words = [()]
    i = 0
    while i < len(elements):
        for gi, gen in enumerate(gens):
            cand = ref_compose(elements[i], gen)
            sig = np.ravel(ref_signature(cand, probes))
            n = len(elements)
            if np.flatnonzero(np.abs(sigs[:n] - sig).max(axis=1) <= tol).size:
                continue
            assert n < cap
            sigs[n] = sig
            elements.append(cand)
            words.append(words[i] + (gi,))
        i += 1
    return elements, words


def rotation_generators(rng, m, k, order):
    """A fiber-cycling rotation by 2 pi / order and a reflection, both in one
    generic orthonormal frame and both fixing one generic point: a finite
    group whose products are generic floats, equal only up to rounding."""
    frame, _ = np.linalg.qr(rng.standard_normal((k, k)))
    angle = 2 * np.pi / order
    turn, flip = np.eye(k), np.eye(k)
    turn[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    flip[1, 1] = -1.0
    p = rng.standard_normal((m, k))
    gens = []
    for perm, lin in ((np.roll(np.arange(m), 1), turn), (np.arange(m), flip)):
        maps = np.broadcast_to(frame @ lin @ frame.T, (m, k, k)).copy()
        gens.append(FiberPermIsometry(perm, maps, p - np.einsum("gij,gj->gi", maps, p[perm])))
    return gens


class TestClosureMatchesEinsumForm:
    @staticmethod
    def assert_same(generators, cap, elements, order=None):
        """Row i of the group's stacks is the reference closure's element i,
        byte for byte, and so is its signature."""
        group = group_closure(generators, cap=cap)
        refs, words = ref_closure(generators, cap)
        assert group.words == tuple(words)
        assert order is None or len(group) == order
        probes = ref_probe_cloud(group.m, group.k)
        for i, (iso, want) in enumerate(zip(elements(group), refs, strict=True)):
            for arr, ref in zip((group.perm[i], group.maps[i], group.trans[i]), want):
                assert arr.dtype == ref.dtype and arr.shape == ref.shape
                assert arr.tobytes() == ref.tobytes()
            sig = _signature(iso, _probe_cloud(group.m, group.k))
            assert sig.tobytes() == ref_signature(want, probes).tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_box_generators(self, seed, elements):
        group, _ = random_box_group(seed, dim=3 + seed)
        self.assert_same(group.generators, 49, elements)

    @pytest.mark.parametrize("seed", range(6))
    def test_fiber_generators(self, seed, elements):
        group, _ = random_fiber_group(seed, fibers=2 + seed % 4, fiber_dim=1 + seed % 3)
        self.assert_same(group.generators, 49, elements)

    @pytest.mark.parametrize("m, k, order", [(1, 2, 5), (3, 2, 5), (2, 3, 6), (4, 3, 7)])
    def test_generic_rotation_generators(self, m, k, order, rng, elements):
        gens = rotation_generators(rng, m, k, order)
        cycle = int(np.lcm(m, order))
        self.assert_same(gens, 4 * cycle + 1, elements, order=2 * cycle)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_box_generators_at_the_schema_cap(self, seed, elements):
        group, _ = random_box_group(seed, dim=64, max_order=512)
        assert _exact_table(group.generators, 513) is not None
        self.assert_same(group.generators, 513, elements)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fiber_generators_at_the_schema_cap(self, seed, elements):
        group, _ = random_fiber_group(seed, fibers=16, fiber_dim=8, max_order=512)
        assert _exact_table(group.generators, 513) is not None
        self.assert_same(group.generators, 513, elements)

    @pytest.mark.parametrize("make", [
        lambda: random_box_group(1, dim=64, max_order=512)[0],
        lambda: random_fiber_group(2, fibers=16, fiber_dim=8, max_order=512)[0],
        lambda: random_box_group(4, dim=8, max_order=48)[0],
    ])
    def test_cap_error_at_the_same_count(self, make, elements):
        """One element short of the order, both rules raise; at the order
        neither does."""
        group = make()
        gens, order = group.generators, len(group)
        with pytest.raises(GroupNotClosedError, match=f"exceeded {order - 1} elements"):
            group_closure(gens, cap=order - 1)
        with pytest.raises(AssertionError):  # ref_closure's `n < cap`
            ref_closure(gens, order - 1)
        self.assert_same(gens, order, elements, order=order)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_element(self, cap, rng):
        """Exact and float closures alike: the identity alone outgrows it."""
        box = random_box_group(1, dim=8)[0].generators
        assert _exact_table(box, 1) is not None
        for gens in (box, rotation_generators(rng, 2, 3, 5)):
            with pytest.raises(GroupNotClosedError, match=f"exceeded {cap} elements"):
                group_closure(gens, cap=cap)

    def test_probe_cloud_is_built_once_and_read_only(self):
        for m, k in ((1, 1), (8, 1), (5, 3)):
            probes = _probe_cloud(m, k)
            assert _probe_cloud(m, k) is probes
            assert probes.tobytes() == ref_probe_cloud(m, k).tobytes()
            assert not probes.flags.writeable

    @pytest.mark.parametrize("m, k", [(1, 1), (4, 1), (3, 2)])
    def test_identity_equals_the_checked_form(self, m, k):
        e = FiberPermIsometry.identity(m, k)
        checked = FiberPermIsometry(np.arange(m), np.broadcast_to(np.eye(k), (m, k, k)).copy(),
                                    np.zeros((m, k)))
        for name in ("perm", "maps", "trans"):
            arr, ref = getattr(e, name), getattr(checked, name)
            assert arr.dtype == ref.dtype and arr.tobytes() == ref.tobytes()
            assert not arr.flags.writeable


def float_rule_closure(generators, cap, monkeypatch):
    """group_closure with the exact mode switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(isometries, "_exact_closure", lambda generators, cap: None)
        return group_closure(generators, cap=cap)


def assert_same_groups(got, want):
    assert got.words == want.words
    for name in ("perm", "maps", "trans"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        assert not x.flags.writeable and not y.flags.writeable


def swap_group(trans):
    """The swap of two coordinates, with the given (2, 1) translation."""
    return FiberPermIsometry(np.array([1, 0]), np.ones((2, 1, 1)), np.array(trans))


def conjugated(perm, signs, p):
    """x -> L(x - p) + p for the signed permutation L = (perm, signs)."""
    maps = np.array(signs, dtype=float).reshape(-1, 1, 1)
    p = np.array(p, dtype=float).reshape(-1, 1)
    return FiberPermIsometry(np.array(perm), maps, p - maps[:, :, 0] * p[perm])


def word_generators():
    """About p = (2, 1, 0), the 3-cycle and the sign change of coordinate 2.
    Both translate by at most 2, so a word of at most cap of them by at
    most 2 cap; the sign change of coordinate 0, which they generate,
    translates by 2 p_0 = 4.  The group has order 24."""
    return [conjugated([1, 2, 0], [1, 1, 1], [2, 1, 0]),
            conjugated([0, 1, 2], [1, 1, -1], [2, 1, 0])]


class TestExactModeSelection:
    """The exact mode runs only where it gives the float rule's elements;
    elsewhere the float rule runs, byte for byte as before."""

    FLOAT_CASES = {
        "translation_0.1": lambda rng: [conjugated([1, 2, 0], [1, -1, -1], [0.1, 0.2, 0.3])],
        "denominator_2^34": lambda rng: [conjugated([1, 0, 2], [-1, 1, -1],
                                                    [1 + 2.0**-34, 0.5, -0.25])],
        "negative_zero": lambda rng: [swap_group([[-0.0], [0.0]])],
        "rotation_maps": lambda rng: rotation_generators(rng, 3, 2, 5),
        "rotation_of_one_radian": lambda rng: [rotation_by_one_radian()],
    }

    @pytest.mark.parametrize("case", FLOAT_CASES)
    def test_float_rule_where_the_conditions_fail(self, case, rng, monkeypatch, elements):
        gens = self.FLOAT_CASES[case](rng)
        assert _exact_table(gens, 64) is None
        if case == "rotation_of_one_radian":
            with pytest.raises(GroupNotClosedError):
                group_closure(gens, cap=64)
            return
        group = group_closure(gens, cap=64)
        assert_same_groups(group, float_rule_closure(gens, 64, monkeypatch))
        TestClosureMatchesEinsumForm.assert_same(gens, 64, elements)

    def test_swap_without_the_signed_zero_is_exact(self, monkeypatch):
        gens = [swap_group([[0.0], [0.0]])]
        assert _exact_table(gens, 64) is not None
        assert_same_groups(group_closure(gens), float_rule_closure(gens, 512, monkeypatch))

    @pytest.mark.parametrize("seed", range(12))
    def test_exact_mode_matches_the_float_rule(self, seed, monkeypatch):
        if seed % 2:
            group, _ = random_fiber_group(seed, 1 + seed % 5, 1 + seed % 4, 48)
        else:
            group, _ = random_box_group(seed, 1 + seed, 48)
        assert _exact_table(group.generators, 49) is not None
        assert_same_groups(group, float_rule_closure(group.generators, 49, monkeypatch))

    def test_numerators_beyond_the_limit_fall_back(self, monkeypatch):
        """A translation of 2^51 is exact, but at that size a signature rounds
        to whole numbers, below the probes' gap; the float rule decides."""
        gens = [conjugated([1, 2, 0], [1, 1, -1], [2.0**51, 0.0, 0.0])]
        assert 2.0**51 > _translation_limit(3, 1)
        assert _exact_table(gens, 64) is None
        group = group_closure(gens, cap=64)
        assert_same_groups(group, float_rule_closure(gens, 64, monkeypatch))

    def test_products_beyond_the_limit_fall_back(self, monkeypatch):
        """At cap 64 words could reach numerators of 128.  With the numerator
        limit at 127 the exact mode does not run: the float rule makes the
        group, with every product a compose."""
        gens = word_generators()
        monkeypatch.setattr(isometries, "_EXACT_NUM", 127)
        assert _exact_table(gens, 64) is None
        products = []
        monkeypatch.setattr(isometries, "compose", lambda a, b: products.append(1) or
                            compose(a, b))
        group = group_closure(gens, cap=64)
        assert products and group.exact is None and np.abs(group.trans).max() == 4.0
        assert_same_groups(group, float_rule_closure(gens, 64, monkeypatch))

    @pytest.mark.parametrize("num_limit, exact_at", [(48, {23, 24}), (47, {23}), (45, set())])
    def test_checked_products_within_and_beyond_the_limit(self, num_limit, exact_at,
                                                          monkeypatch):
        """The exact mode runs exactly where cap times the largest generator
        numerator (2) is within the limit: one short of the order (cap 23,
        where both rules raise the cap error) and at the order (cap 24).
        Either way the group and the error are the float rule's."""
        gens = word_generators()
        monkeypatch.setattr(isometries, "_EXACT_NUM", num_limit)
        want = float_rule_closure(gens, 64, monkeypatch)
        assert len(want) == 24
        products = []
        monkeypatch.setattr(isometries, "compose", lambda a, b: products.append(1) or
                            compose(a, b))
        for cap in (23, 24):
            exact = cap in exact_at
            assert (_exact_table(gens, cap) is not None) is exact
            products.clear()
            if cap == 23:
                with pytest.raises(GroupNotClosedError, match="exceeded 23 elements"):
                    group_closure(gens, cap=cap)
            else:
                group = group_closure(gens, cap=cap)
                assert (group.exact is not None) is exact
                assert_same_groups(group, want)
            assert bool(products) is not exact

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 0.0], [0.5, -0.25, 3.0], [2.0**-33, 1.0, -2.0**19], [0.1, 0.2, 0.0],
        [2.0**20, 0.5, 0.0], [5e-324, 1.0, 0.0], [1e300, -1e-300, 2.5], [2.0**-34, 0.0, 0.0],
    ])
    def test_translations_as_numerators_over_the_least_power_of_two(self, values):
        den, nums = isometries._dyadic(np.array(values))
        assert [Fraction(v, den) for v in nums.tolist()] == [Fraction(v) for v in values]
        assert den == max(Fraction(v).denominator for v in values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_no_exact_form_for_a_non_finite_translation(self, bad):
        for k in (1, 2):
            iso = FiberPermIsometry(np.arange(2), np.broadcast_to(np.eye(k), (2, k, k)),
                                    np.zeros((2, k)))
            trans = iso.trans.copy()
            trans[1, 0] = bad
            assert FiberPermIsometry._trusted(iso.perm, iso.maps, trans).exact is None

    def test_exact_forms(self):
        g = conjugated([2, 0, 1], [1, -1, 1], [0.5, -0.25, 2.0**-20])
        form = g.exact
        assert (form.src.tolist(), form.sign.tolist()) == ([2, 0, 1], [1, -1, 1])
        assert form.den == 2**20
        assert [Fraction(v, form.den) for v in form.nums.tolist()] == [
            Fraction(float(t)) for t in g.trans[:, 0]]
        assert rotation_by_one_radian().exact is None
        assert FiberPermIsometry(np.array([0]), np.ones((1, 1, 1)), np.array([[np.inf]])).exact \
            is None
        fiber = FiberPermIsometry(np.array([1, 0]), np.array([[[0, -1], [1, 0]], [[1, 0], [0, 1]]]),
                                  np.zeros((2, 2)))
        assert (fiber.exact.src.tolist(), fiber.exact.sign.tolist()) == ([3, 2, 0, 1],
                                                                         [-1, 1, 1, 1])


def assert_read_only(group):
    """Every array a group holds, its generators' included, refuses writes."""
    arrays = [group.perm, group.maps, group.trans]
    if group.exact is not None:
        arrays += [group.exact.src, group.exact.sign, group.exact.nums]
    arrays += [getattr(g, name) for g in group.generators for name in ("perm", "maps", "trans")]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


class TestGroupStacks:
    """A group is its stacked arrays; where the exact closure made it, its
    exact form holds the same elements."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("make", [random_box_group, random_fiber_group])
    def test_exact_form_decodes_to_the_float_stacks(self, make, seed, elements):
        group, _ = make(seed)
        form, (n, m, k) = group.exact, group.trans.shape
        assert form is not None
        assert form.src.shape == form.sign.shape == form.nums.shape == (n, m * k)
        assert (form.nums / form.den).reshape(n, m, k).tobytes() == group.trans.tobytes()
        # entry q of the image is row q % k of fiber q // k, and reads coordinate
        # src % k of fiber src // k with the sign: a one-hot row of the fiber map
        maps = np.zeros((n, m, k, k))
        for i, q in itertools.product(range(n), range(m * k)):
            src = int(form.src[i, q])
            assert src // k == group.perm[i, q // k]
            maps[i, q // k, q % k, src % k] = form.sign[i, q]
        assert maps.tobytes() == group.maps.tobytes()
        for i, iso in enumerate(elements(group)):  # each element's own exact form agrees
            own = iso.exact
            assert own.src.tolist() == form.src[i].tolist()
            assert own.sign.tolist() == form.sign[i].tolist()
            assert [Fraction(int(v), own.den) for v in own.nums] == [
                Fraction(int(v), form.den) for v in form.nums[i]]
        assert_read_only(group)

    def test_float_rule_stacks_are_read_only(self, rng):
        gens = TestExactModeSelection.FLOAT_CASES["translation_0.1"](rng)
        group = group_closure(gens, cap=64)
        assert group.exact is None and len(group) == 3
        assert_read_only(group)

    def test_affine_action_stacks_are_read_only(self):
        group = witness_group("q8")
        assert group.exact is None
        assert_read_only(group)


def schema_shapes():
    """Every (m, k) a box or fiber scenario can ask for."""
    box = SCENARIO_SCHEMAS["box_fixed_point"]["properties"]["dim"]
    fiber = SCENARIO_SCHEMAS["fiber_fixed_point"]["properties"]
    shapes = {(m, 1) for m in range(box["minimum"], box["maximum"] + 1)}
    shapes |= {(m, k) for m in range(fiber["fibers"]["minimum"], fiber["fibers"]["maximum"] + 1)
               for k in range(fiber["fiber_dim"]["minimum"], fiber["fiber_dim"]["maximum"] + 1)}
    return sorted(shapes)


class TestProbeGap:
    @pytest.mark.parametrize("m, k", [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (1, 3), (2, 2),
                                      (1, 4)])
    def test_gap_is_the_least_signature_difference(self, m, k):
        """Over all pairs of signed permutations of the m k coordinates, the
        smallest largest difference of their probe images is the gap."""
        n = m * k
        probes = _probe_cloud(m, k).reshape(-1, n)
        images = np.stack([probes[:, list(perm)] * np.array(signs)
                           for perm in itertools.permutations(range(n))
                           for signs in itertools.product((1.0, -1.0), repeat=n)])
        flat = images.reshape(len(images), -1)
        least = min(np.abs(flat[i + 1:] - flat[i]).max(axis=1).min()
                    for i in range(len(flat) - 1))
        assert least == _probe_gap(m, k)

    def test_every_schema_shape_separates_signed_permutations(self):
        """The probes of every shape a scenario allows tell signed permutations
        apart by far more than _CLOSURE_TOL, and at every translation the
        generated groups use (at most 2 GRID_RANGE)."""
        shapes = schema_shapes()
        assert (64, 1) in shapes and (16, 8) in shapes
        for m, k in shapes:
            assert _probe_gap(m, k) > 1e5 * _CLOSURE_TOL, (m, k)
            assert _translation_limit(m, k) > 1e6 * 2 * GRID_RANGE, (m, k)


class TestOrthogonalityCheck:
    """_orthogonal is np.allclose(M^T M, I, atol=_ORTHO_TOL) written out."""

    @staticmethod
    def allclose_form(maps):
        gram = np.einsum("gij,gil->gjl", maps, maps)
        return np.allclose(gram, np.eye(maps.shape[-1]), atol=_ORTHO_TOL)

    def test_boundary_of_the_off_diagonal_tolerance(self):
        # M = [[1, 0], [e, 1]] has Gram [[1 + e^2, e], [e, 1]]
        accepted = []
        for e in (_ORTHO_TOL, np.nextafter(_ORTHO_TOL, 1.0), np.nextafter(_ORTHO_TOL, 0.0),
                  -_ORTHO_TOL, np.nextafter(-_ORTHO_TOL, -1.0)):
            maps = np.array([[[1.0, 0.0], [e, 1.0]]])
            assert _orthogonal(maps) == self.allclose_form(maps)
            accepted.append(_orthogonal(maps))
        assert accepted == [True, False, True, True, False]

    def test_boundary_of_the_diagonal_tolerance(self):
        # a 1 x 1 map a has Gram a^2; step a through the floats around the bound
        bound = _ORTHO_TOL + 1e-5
        seen = set()
        for centre in (np.sqrt(1.0 + bound), np.sqrt(1.0 - bound)):
            a = centre
            for _ in range(6):
                a = np.nextafter(a, 0.0)
            for _ in range(12):
                for maps in (np.array([[[a]]]), np.array([[[-a]]]), np.full((3, 1, 1), a)):
                    got = _orthogonal(maps)
                    assert got == self.allclose_form(maps)
                    seen.add(got)
                a = np.nextafter(a, 2.0)
        assert seen == {True, False}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_maps_rejected(self, bad):
        for where in ((0, 0, 0), (1, 0, 1)):
            maps = np.broadcast_to(np.eye(2), (2, 2, 2)).copy()
            maps[where] = bad
            with np.errstate(invalid="ignore"):
                assert _orthogonal(maps) is False
                assert not self.allclose_form(maps)

    def test_random_maps(self, rng):
        for _ in range(200):
            k = int(rng.integers(1, 5))
            q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            maps = q + rng.standard_normal((2, k, k)) * 10.0 ** rng.integers(-12, -3)
            assert _orthogonal(maps) == self.allclose_form(maps)
        assert _orthogonal(np.empty((0, 2, 2)))


@st.composite
def isometry_and_box(draw):
    """A signed-permutation isometry with any kind of translation, and a box."""
    dim = draw(st.integers(1, 5))
    perm = np.array(draw(st.permutations(range(dim))))
    signs = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=dim, max_size=dim)))
    trans = np.array([[float(draw(BOUND))] for _ in range(dim)])
    return FiberPermIsometry(perm, signs.reshape(dim, 1, 1), trans), draw(boxes(dim))


@PROPERTY_SETTINGS
@given(isometry_and_box())
def test_box_image_matches_fraction_form(pair):
    iso, box = pair
    got = box_image(iso, box)
    assert_same_box(got, ref_box_image(iso, box))
    assert (got == box) == (got.lo == box.lo and got.hi == box.hi)
