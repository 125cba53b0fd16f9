"""Isometry algebra and group closure tests.

Closures are checked against the tests' own reference forms: products
composed by einsum, duplicates found by a tolerance scan of probe images,
and exact forms composed in Fractions.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_boxes import BOUND, PROPERTY_SETTINGS, assert_same_box, boxes
from test_groups import (
    EXTRA_GENERATORS,
    compose,
    record_words,
    ref_compose,
    ref_identity,
    ref_probe_cloud,
    ref_signature,
)

from supfix import isometries
from supfix.boxes import Box
from supfix.errors import GroupNotClosedError, SpaceMismatchError
from supfix.instances import (
    GRID_RANGE,
    GRID_STEP,
    _conjugate_by_translation,
    random_box_group,
    random_fiber_group,
    random_inner_derivation,
    unitary_group,
)
from supfix.isometries import (
    _ORTHO_TOL,
    ExactForm,
    FiberPermIsometry,
    GroupSpec,
    _dyadic,
    _orthogonal,
    box_image,
    group_closure,
    orbit,
)
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
    """Index of the element among isos equal to iso: the same permutation,
    fiber maps and translations."""
    for i, e in enumerate(isos):
        if all(np.array_equal(getattr(e, name), getattr(iso, name))
               for name in ("perm", "maps", "trans")):
            return i
    raise KeyError("isometry is not an element of the group")


def rotation_by_one_radian() -> FiberPermIsometry:
    c, s = np.cos(1.0), np.sin(1.0)
    return FiberPermIsometry(np.array([0]), np.array([[[c, -s], [s, c]]]), np.zeros((1, 2)))


class TestFiberPermIsometry:
    def test_identity_fixes_points(self, rng, elements):
        """Element 0 of a closure, the empty word, is the identity."""
        group, _ = random_fiber_group(5, fibers=4, fiber_dim=3)
        e = elements(group)[0]
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
            apply(g, SupPoint(np.array([1e308])[:, None]))


class TestGroupClosure:
    def test_cyclic_rotation_of_coordinates(self):
        # the 3-cycle on coordinates generates a group of order 3
        g = FiberPermIsometry(np.array([1, 2, 0]), np.ones((3, 1, 1)), np.zeros((3, 1)))
        group = group_closure([g])
        assert len(group) == 3
        assert group.exact.src[0].tolist() == [0, 1, 2]  # element 0 is the identity

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
        """A swap whose translations do not cancel around its cycle: its
        square is the shift by (0.75, 0.75), of infinite order."""
        with pytest.raises(GroupNotClosedError, match="exceeded 64 elements"):
            group_closure([swap_group([[0.5], [0.25]])], cap=64)

    def test_words_multiply_out(self, elements, monkeypatch):
        """The word read off each element's BFS parents multiplies out to it."""
        g = FiberPermIsometry(
            np.array([1, 0]), np.array([[[-1.0]], [[1.0]]]), np.array([[0.25], [-0.5]])
        )
        words = record_words(monkeypatch)
        group = group_closure([g])
        x = SupPoint(np.array([[0.3], [0.7]]))
        for iso, word in zip(elements(group), words[-1], strict=True):
            built = FiberPermIsometry(*ref_identity(2, 1))
            for i in word:
                built = compose(built, group.generators[i])
            assert sup_distance(apply(iso, x), apply(built, x)) <= 1e-12

    @pytest.mark.parametrize("m, k", [(1, 1), (4, 1), (3, 2)])
    def test_identity_equals_the_checked_form(self, m, k, stacks):
        """Element 0, the empty word, holds the bytes of the checked identity,
        and its exact form is the identity with zero numerators."""
        group = group_closure(signed_fiber_generators(m, k), cap=signed_fiber_order(m, k))
        checked = FiberPermIsometry(*ref_identity(m, k))
        for arr, want in zip((stack[0] for stack in stacks(group)),
                             (checked.perm, checked.maps, checked.trans)):
            assert arr.dtype == want.dtype and arr.shape == want.shape
            assert arr.tobytes() == want.tobytes()
        form = group.exact
        assert form.src[0].tolist() == list(range(m * k))
        assert form.sign[0].tolist() == [1] * (m * k) and not form.nums[0].any()

    @pytest.mark.parametrize("m, k", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (4, 1)])
    def test_whole_signed_fiber_group_has_its_order(self, m, k):
        """Every signed fiber permutation, conjugated by a grid point p:
        closed at its order, the key mode neither merges two elements nor
        keeps one twice, one element short it raises, and every element
        fixes p exactly."""
        order = signed_fiber_order(m, k)
        p = 0.25 * np.arange(m * k, dtype=float).reshape(m, k) - 0.5
        gens = [_conjugate_by_translation(g, p) for g in signed_fiber_generators(m, k)]
        group = group_closure(gens, cap=order)
        assert len(group) == order
        form = group.exact
        assert len({(form.src[i].tobytes(), form.sign[i].tobytes()) for i in range(order)}) == order
        assert (group.images(SupPoint(p)) == p).all()
        with pytest.raises(GroupNotClosedError, match=f"exceeded {order - 1} elements"):
            group_closure(gens, cap=order - 1)

    def test_generators_on_different_spaces_raise(self):
        gens = [FiberPermIsometry(*ref_identity(2, 1)), FiberPermIsometry(*ref_identity(1, 2))]
        with pytest.raises(SpaceMismatchError, match="different spaces"):
            group_closure(gens)

    def test_no_generators_raise(self):
        with pytest.raises(ValueError, match="at least one generator"):
            group_closure([])


def signed_fiber_order(m, k) -> int:
    return math.factorial(m) * (2**k * math.factorial(k)) ** m


def signed_fiber_generators(m, k) -> list[FiberPermIsometry]:
    """Linear generators of every isometry of (m, k) whose fiber maps are
    signed permutation matrices, a group of order m! (2^k k!)^m: a sign
    flip, a k-cycle and a transposition in fiber 0, and an m-cycle and a
    transposition of the fibers."""
    eye = np.broadcast_to(np.eye(k), (m, k, k))
    zeros = np.zeros((m, k))

    def in_fiber_0(a):
        maps = eye.copy()
        maps[0] = a
        return FiberPermIsometry(np.arange(m), maps, zeros)

    swap_k, swap_m = [1, 0, *range(2, k)], [1, 0, *range(2, m)]
    gens = [in_fiber_0(np.diag([-1.0] + [1.0] * (k - 1)))]
    if k > 1:
        gens += [in_fiber_0(np.roll(np.eye(k), 1, axis=0)), in_fiber_0(np.eye(k)[swap_k])]
    if m > 1:
        gens += [FiberPermIsometry(np.roll(np.arange(m), 1), eye.copy(), zeros),
                 FiberPermIsometry(np.array(swap_m), eye.copy(), zeros)]
    return gens


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
        assert cloud_diameter(orbit(group, SupPoint(np.array([0.0, 0.0])[:, None]))) == 0.0


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
    """The affine-action model of a random inner derivation, whose group acts
    on realified fibers (k = 2d)."""
    group = (unitary_closure(EXTRA_GENERATORS[name]) if name in EXTRA_GENERATORS
             else unitary_group(name))
    data, _ = random_inner_derivation(group, 11)
    return build_affine_action(data)


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
    if x.k == 1:
        den, nums, spread = exact_orbit_diameter(group, x)
        ref_images, ref_diam = ref_exact_orbit_diameter(isos, x)
        assert nums.shape == (len(isos), x.m)
        assert [[Fraction(int(v), den) for v in row] for row in nums] == ref_images
        assert type(spread) is int and Fraction(spread, den) == ref_diam


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

    @pytest.mark.parametrize("name", ["q8", "s3", "c12", "2T", "2O", "2I", "B3"])
    def test_witness_groups(self, name, elements):
        """The model applies its (|G|, 2d, 2d) frame maps with the floats of
        each element's per-fiber maps applied on its own."""
        model = witness_group(name)
        m, k = model.size, 2 * model.d
        isos = elements(model)
        rng = np.random.default_rng(len(isos))
        assert_stacked_forms_match(model, isos, SupPoint(np.zeros((m, k))))
        for x in spread_points(rng, m, k, count=2):
            assert_stacked_forms_match(model, isos, x)

    def test_non_finite_images_are_refused(self):
        """apply refuses an image that overflows; so do the float stacked
        forms.  The exact orbit is taken in integers, so it holds the image
        2e308 that no float does (the two elements are a stack, not a group)."""
        g = FiberPermIsometry(np.array([0]), np.ones((1, 1, 1)), np.array([[1e308]]))
        den, nums = _dyadic(np.array([0.0, 1e308]))
        group = GroupSpec((g,), np.array([[[0.0]], [[1e308]]]),
                          ExactForm(np.zeros((2, 1), dtype=int), np.ones((2, 1), dtype=int),
                                    den, nums.reshape(2, 1)))
        x = SupPoint(np.array([1e308])[:, None])
        for fn in (orbit, fixed_point_residual):
            with pytest.raises(ValueError, match="finite"):
                fn(group, x)
        den, _, spread = exact_orbit_diameter(group, x)
        assert Fraction(spread, den) == Fraction(1e308)

    def test_shape_mismatch(self):
        group, _ = random_box_group(3, dim=4)
        for fn in (orbit, fixed_point_residual, exact_orbit_diameter):
            with pytest.raises(SpaceMismatchError):
                fn(group, SupPoint(np.array([0.0, 1.0])[:, None]))
        model = witness_group("q8")
        for fn in (orbit, fixed_point_residual):
            with pytest.raises(SpaceMismatchError):
                fn(model, SupPoint(np.zeros((model.size, 2 * model.d + 1))))


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


class TestTrustedConstruction:
    """FiberPermIsometry._trusted skips the constructor's checks; what it
    makes must still be what the checking constructor makes of the same
    arrays."""

    def test_public_constructor_still_checks(self, rng):
        iso = random_iso(rng, 4, 2)
        with pytest.raises(ValueError, match="orthogonal"):
            FiberPermIsometry(iso.perm, 2.0 * iso.maps, iso.trans)
        with pytest.raises(ValueError, match="permutation"):
            FiberPermIsometry(np.zeros(4, dtype=int), iso.maps, iso.trans)
        with pytest.raises(SpaceMismatchError):
            FiberPermIsometry(iso.perm, iso.maps[:, :1, :1], iso.trans)

    @pytest.mark.parametrize("k", [1, 3])
    def test_outputs_read_only_and_equal_to_checked(self, k, rng):
        """The conjugates that `instances` builds through _trusted."""
        for _ in range(10):
            lin = random_iso(rng, 5, k)
            lin = FiberPermIsometry(lin.perm, lin.maps, np.zeros((5, k)))
            out = _conjugate_by_translation(lin, rng.standard_normal((5, k)))
            checked = FiberPermIsometry(out.perm.copy(), out.maps.copy(), out.trans.copy())
            for name in ("perm", "maps", "trans"):
                arr, ref = getattr(out, name), getattr(checked, name)
                assert not arr.flags.writeable
                assert arr.dtype == ref.dtype and arr.shape == ref.shape
                assert np.array_equal(arr, ref)
                with pytest.raises(ValueError):
                    arr[...] = 0


# -- the closure against the tests' own reference forms ---------------------------
# ref_closure closes by einsum products and a tolerance scan of probe images
# (test_groups.ref_compose, ref_signature, ref_probe_cloud), a rule that
# shares nothing with the package's integer closure.  Where all its floats
# are exact, as for every group a scenario draws, the exact closure must give
# its elements byte for byte, in the same order.  fraction_elements composes
# the generators' signed permutations and translations in Fractions.


def ref_closure(generators, cap, tol=1e-10):
    m, k = generators[0].m, generators[0].k
    gens = [(g.perm, g.maps, g.trans) for g in generators]
    probes = ref_probe_cloud(m, k)
    elements = [ref_identity(m, k)]
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


def fraction_elements(generators, words):
    """(src, sign, translations as Fractions) of each word's product, read
    left to right, composed from the generators' signed permutations and
    float translations in exact arithmetic."""
    gens = [(g.exact.src.tolist(), g.exact.sign.tolist(),
             [Fraction(float(t)) for t in g.trans.ravel()]) for g in generators]
    n = len(gens[0][0])
    out = []
    for word in words:
        src, sign, trans = list(range(n)), [1] * n, [Fraction(0)] * n
        for gi in word:  # a * b is x -> a(b(x))
            b_src, b_sign, b_trans = gens[gi]
            src, sign, trans = ([b_src[s] for s in src],
                                [a * b_sign[s] for a, s in zip(sign, src)],
                                [a * b_trans[s] + t for a, s, t in zip(sign, src, trans)])
        out.append((src, sign, trans))
    return out


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


def assert_same_as_ref_closure(group, cap, elements, order=None):
    """Element i of the group, its float arrays rebuilt from the exact form
    (`group_stacks`), is ref_closure's element i, byte for byte; the
    group's arrays are read-only."""
    refs, _ = ref_closure(group.generators, cap)
    assert order is None or len(group) == order
    for iso, want in zip(elements(group), refs, strict=True):
        for arr, ref in zip((iso.perm, iso.maps, iso.trans), want):
            assert arr.dtype == ref.dtype and arr.shape == ref.shape
            assert arr.tobytes() == ref.tobytes()
    for arr in (group.trans, group.exact.src, group.exact.sign, group.exact.nums):
        assert not arr.flags.writeable


class TestClosureMatchesEinsumForm:
    @pytest.mark.parametrize("seed", range(6))
    def test_box_generators(self, seed, elements):
        group, _ = random_box_group(seed, dim=3 + seed)
        assert_same_as_ref_closure(group_closure(group.generators, cap=49), 49, elements)

    @pytest.mark.parametrize("seed", range(6))
    def test_fiber_generators(self, seed, elements):
        group, _ = random_fiber_group(seed, fibers=2 + seed % 4, fiber_dim=1 + seed % 3)
        assert_same_as_ref_closure(group_closure(group.generators, cap=49), 49, elements)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_box_generators_at_the_schema_cap(self, seed, elements):
        group, _ = random_box_group(seed, dim=64, max_order=512)
        assert_same_as_ref_closure(group_closure(group.generators, cap=513), 513, elements)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fiber_generators_at_the_schema_cap(self, seed, elements):
        group, _ = random_fiber_group(seed, fibers=16, fiber_dim=8, max_order=512)
        assert_same_as_ref_closure(group_closure(group.generators, cap=513), 513, elements)

    @pytest.mark.parametrize("make", [
        lambda: random_box_group(1, dim=64, max_order=512)[0],
        lambda: random_fiber_group(2, fibers=16, fiber_dim=8, max_order=512)[0],
        lambda: random_box_group(4, dim=8, max_order=48)[0],
    ])
    def test_cap_error_at_the_same_count(self, make, elements):
        """One element short of the order, both closures raise; at the order
        neither does."""
        group = make()
        gens, order = group.generators, len(group)
        with pytest.raises(GroupNotClosedError, match=f"exceeded {order - 1} elements"):
            group_closure(gens, cap=order - 1)
        with pytest.raises(AssertionError):  # ref_closure's `n < cap`
            ref_closure(gens, order - 1)
        assert_same_as_ref_closure(group_closure(gens, cap=order), order, elements, order=order)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_element(self, cap):
        """Box and fiber generators alike: the identity alone outgrows it."""
        for group, _ in (random_box_group(1, dim=8), random_fiber_group(1)):
            with pytest.raises(GroupNotClosedError, match=f"exceeded {cap} elements"):
                group_closure(group.generators, cap=cap)


def swap_group(trans):
    """The swap of two coordinates, with the given (2, 1) translation."""
    return FiberPermIsometry(np.array([1, 0]), np.ones((2, 1, 1)), np.array(trans))


def conjugated(perm, signs, p):
    """x -> L(x - p) + p for the signed permutation L = (perm, signs), with
    the translation p - L p taken in floats."""
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


class TestExactClosureContract:
    """group_closure's one rule: generators whose fiber maps are signed
    permutations and whose translations are finite close exactly, within
    one bound on their numerators; any other generators raise ValueError."""

    OFF_GRID = {
        # translations cancel around the 4-cycle, but 0.1 + 0.3 is no float
        "translation_0.1": lambda: [FiberPermIsometry(
            np.array([1, 2, 3, 0]), np.ones((4, 1, 1)), np.array([[0.1], [0.3], [-0.1], [-0.3]]))],
        "denominator_2^34": lambda: [conjugated([1, 0, 2], [-1, 1, -1],
                                                [1 + 2.0**-34, 0.5, -0.25])],
    }

    @pytest.mark.parametrize("case, order", [("translation_0.1", 4), ("denominator_2^34", 4)])
    def test_off_grid_translations_close_exactly(self, case, order, monkeypatch):
        """Each element is the exact product of its word, read off its BFS
        parents, and its floats are the correctly rounded values of that
        product."""
        gens = self.OFF_GRID[case]()
        words = record_words(monkeypatch)
        group = group_closure(gens, cap=64)
        assert len(group) == order
        assert words[-1] == tuple(ref_closure(gens, 64)[1])
        form, rounded = group.exact, 0
        for i, (src, sign, trans) in enumerate(fraction_elements(gens, words[-1])):
            assert (form.src[i].tolist(), form.sign[i].tolist()) == (src, sign)
            assert [Fraction(int(v), form.den) for v in form.nums[i]] == trans
            assert group.trans[i].ravel().tolist() == [float(t) for t in trans]
            rounded += sum(Fraction(float(t)) != t for t in trans)
        assert bool(rounded) is (case == "translation_0.1")

    def test_float_translations_that_do_not_cancel_are_of_infinite_order(self):
        """About p = (0.1, 0.2, 0.3) the float translation p_2 + p_0 rounds,
        so the cycle's product is a shift by an ulp, which the tolerance of
        ref_closure merges into a group of order 3."""
        gens = [conjugated([1, 2, 0], [1, -1, -1], [0.1, 0.2, 0.3])]
        assert len(ref_closure(gens, 64)[0]) == 3
        with pytest.raises(GroupNotClosedError, match="exceeded 64 elements"):
            group_closure(gens, cap=64)

    def test_negative_zero_reads_as_positive_zero(self, elements):
        group = group_closure([swap_group([[-0.0], [0.0]])])
        want = group_closure([swap_group([[0.0], [0.0]])])
        assert len(group) == len(want) == 2
        assert group.trans.tobytes() == want.trans.tobytes()
        assert not np.signbit(group.trans).any()
        assert group.exact.nums.tolist() == want.exact.nums.tolist()
        assert_same_as_ref_closure(want, 512, elements)

    @pytest.mark.parametrize("m, k, order", [(1, 2, 5), (3, 2, 5), (2, 3, 6), (4, 3, 7)])
    def test_generic_rotation_generators_raise(self, m, k, order, rng):
        gens = rotation_generators(rng, m, k, order)
        with pytest.raises(ValueError, match="generator 0 .* not a signed permutation matrix"):
            group_closure(gens, cap=4 * order * m + 1)

    def test_rotation_of_one_radian_raises(self):
        """A rotation of infinite order is refused for its map, before any
        product is made."""
        with pytest.raises(ValueError, match="not a signed permutation matrix"):
            group_closure([rotation_by_one_radian()], cap=64)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_translation_raises(self, bad):
        good = swap_group([[0.5], [-0.5]])
        trans = np.array([[0.5], [bad]])
        with pytest.raises(ValueError, match="generator 1 .* translation is not finite"):
            group_closure([good, FiberPermIsometry._trusted(good.perm, good.maps, trans)])

    @pytest.mark.parametrize("seed", range(12))
    def test_exact_closure_matches_ref_closure(self, seed, elements):
        if seed % 2:
            group, _ = random_fiber_group(seed, 1 + seed % 5, 1 + seed % 4, 48)
        else:
            group, _ = random_box_group(seed, 1 + seed, 48)
        assert_same_as_ref_closure(group, 49, elements)

    @pytest.mark.parametrize("cap, fits", [(127, True), (128, False)])
    def test_the_bound_is_int64(self, cap, fits, monkeypatch):
        """The generator translates by 2^56 (over 1), so cap 127 keeps every
        numerator within 127 * 2^56 < 2^63 and cap 128 could reach 2^63."""
        gens = [conjugated([1, 2, 0], [1, 1, -1], [2.0**56, 0.0, 0.0])]
        if not fits:
            with pytest.raises(ValueError, match="cap 128 times .* exceeds 2\\^63 - 1"):
                group_closure(gens, cap=cap)
            return
        words = record_words(monkeypatch)
        group = group_closure(gens, cap=cap)
        assert len(group) == 6 and group.exact.nums.dtype == np.int64
        for i, (_, _, trans) in enumerate(fraction_elements(gens, words[-1])):
            assert [Fraction(int(v), group.exact.den) for v in group.exact.nums[i]] == trans

    def test_products_beyond_the_bound_raise(self, monkeypatch):
        """With the bound at 127, cap 64 could make numerators of 128, so no
        product is made; at cap 63 the group closes, with translations up
        to 4."""
        gens = word_generators()
        monkeypatch.setattr(isometries, "_EXACT_NUM", 127)
        products = []
        row_products = isometries._row_products
        monkeypatch.setattr(isometries, "_row_products", lambda table: products.append(1) or
                            row_products(table))
        with pytest.raises(ValueError, match=r"cap 64 times .* numerator \(2 bits over 2\^0\)"):
            group_closure(gens, cap=64)
        assert not products
        group = group_closure(gens, cap=63)
        assert len(group) == 24 and np.abs(group.trans).max() == 4.0

    @pytest.mark.parametrize("bound, closes_at", [(48, {23, 24}), (47, {23}), (45, set())])
    def test_products_within_and_beyond_the_bound(self, bound, closes_at, monkeypatch, elements):
        """The closure runs exactly where cap times the largest generator
        numerator (2) is within the bound: one short of the order (cap 23,
        where it raises the cap error) and at the order (cap 24).
        Elsewhere it raises ValueError."""
        gens = word_generators()
        monkeypatch.setattr(isometries, "_EXACT_NUM", bound)
        for cap in (23, 24):
            if cap not in closes_at:
                with pytest.raises(ValueError, match=f"cap {cap} times"):
                    group_closure(gens, cap=cap)
            elif cap == 23:
                with pytest.raises(GroupNotClosedError, match="exceeded 23 elements"):
                    group_closure(gens, cap=cap)
            else:
                assert_same_as_ref_closure(group_closure(gens, cap=cap), 64, elements, order=24)

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
    arrays = [group.trans, group.exact.src, group.exact.sign, group.exact.nums]
    arrays += [getattr(g, name) for g in group.generators for name in ("perm", "maps", "trans")]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


class TestGroupStacks:
    """A group is its generators, its stacked exact form and its float
    translations; the exact form holds every element."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("make", [random_box_group, random_fiber_group])
    def test_exact_form_decodes_to_the_float_stacks(self, make, seed, elements, stacks):
        """The form's numerators round to the translations, and decoded one
        entry at a time they give the float stacks the tests rebuild
        (`group_stacks`)."""
        group, _ = make(seed)
        form, (n, m, k) = group.exact, group.trans.shape
        assert form.src.shape == form.sign.shape == form.nums.shape == (n, m * k)
        perm, float_maps, _ = stacks(group)
        assert (form.nums / form.den).reshape(n, m, k).tobytes() == group.trans.tobytes()
        # entry q of the image is row q % k of fiber q // k, and reads coordinate
        # src % k of fiber src // k with the sign: a one-hot row of the fiber map
        maps = np.zeros((n, m, k, k))
        for i, q in itertools.product(range(n), range(m * k)):
            src = int(form.src[i, q])
            assert src // k == perm[i, q // k]
            maps[i, q // k, q % k, src % k] = form.sign[i, q]
        assert maps.tobytes() == float_maps.tobytes()
        for i, iso in enumerate(elements(group)):  # each element's own exact form agrees
            own = iso.exact
            assert own.src.tolist() == form.src[i].tolist()
            assert own.sign.tolist() == form.sign[i].tolist()
            assert [Fraction(int(v), own.den) for v in own.nums] == [
                Fraction(int(v), form.den) for v in form.nums[i]]
        assert_read_only(group)

    def test_affine_action_stacks_are_read_only(self):
        """The model applies its frame: one read-only (2d, 2d) map per element."""
        model = witness_group("q8")
        frame = model.frame
        assert frame.maps.shape == (len(frame.sigmas), 2 * model.d, 2 * model.d)
        for arr in (frame.sigmas, frame.maps):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0


def signed_zero_groups():
    """Box and fiber groups, each with elements of zero translation: the
    linear signed-permutation groups, those conjugated by a grid point, and
    drawn groups."""
    for m, k in ((3, 1), (2, 2), (1, 3)):
        linear = signed_fiber_generators(m, k)
        p = 0.25 * np.arange(m * k, dtype=float).reshape(m, k) - 0.5
        yield group_closure(linear, cap=signed_fiber_order(m, k))
        yield group_closure([_conjugate_by_translation(g, p) for g in linear],
                            cap=signed_fiber_order(m, k))
    for seed in range(4):
        yield random_box_group(seed, dim=5)[0]
        yield random_fiber_group(seed, fibers=3, fiber_dim=2)[0]


def signed_zero_points(rng, m, k):
    """Points whose coordinates mix -0.0, +0.0 and grid values."""
    for _ in range(3):
        x = rng.integers(-4, 5, size=(m, k)) * 0.25
        x[rng.random((m, k)) < 0.5] = -0.0
        x[rng.random((m, k)) < 0.25] = 0.0
        yield SupPoint(x)
    yield SupPoint(np.full((m, k), -0.0))
    yield SupPoint(np.zeros((m, k)))


class TestSignedZeroImages:
    """GroupSpec.images, one signed gather plus the translations, gives the
    bytes of each element's einsum over its float fiber maps, rebuilt from
    the exact form, signed zeros included."""

    def test_gather_matches_the_per_element_einsum(self, elements, rng):
        skipped_differs = 0
        for group in signed_zero_groups():
            isos, zero = elements(group), group.trans == 0.0
            assert zero.any() and not np.signbit(group.trans[zero]).any()
            for x in signed_zero_points(rng, group.m, group.k):
                got = group.images(x)
                want = np.stack([apply(iso, x).fibers for iso in isos])
                assert got.tobytes() == want.tobytes()
                # skipping the add where the translation is 0 leaves -0.0 images
                form = group.exact
                gathered = (x.fibers.ravel()[form.src] * form.sign).reshape(got.shape)
                skipped = np.where(zero, gathered, gathered + group.trans)
                skipped_differs += skipped.tobytes() != want.tobytes()
        assert skipped_differs > 0


def schema_shapes():
    """(m, k, cap): every shape a box or fiber scenario can ask for, with the
    cap its group is closed at under the largest max_order."""
    box = SCENARIO_SCHEMAS["box_fixed_point"]["properties"]
    fiber = SCENARIO_SCHEMAS["fiber_fixed_point"]["properties"]
    shapes = {(m, 1, box["max_order"]["maximum"] + 1)
              for m in range(box["dim"]["minimum"], box["dim"]["maximum"] + 1)}
    shapes |= {(m, k, fiber["max_order"]["maximum"] + 1)
               for m in range(fiber["fibers"]["minimum"], fiber["fibers"]["maximum"] + 1)
               for k in range(fiber["fiber_dim"]["minimum"], fiber["fiber_dim"]["maximum"] + 1)}
    return sorted(shapes)


class TestScenarioGeneratorsWithinTheBound:
    """No scenario reaches group_closure's ValueError.  A generator that
    random_box_group or random_fiber_group draws translates by p - L p for
    a grid point p of [-GRID_RANGE, GRID_RANGE], so by at most 2 GRID_RANGE
    on the grid of GRID_STEP.  Its numerators over 1 / GRID_STEP are then at
    most 2 GRID_RANGE / GRID_STEP, and no larger over the generators' least
    common denominator, which divides 1 / GRID_STEP."""

    LARGEST = round(2 * GRID_RANGE / GRID_STEP)

    def test_every_schema_shape_at_its_cap_is_within_the_bound(self):
        shapes = schema_shapes()
        assert (64, 1, 513) in shapes and (16, 8, 513) in shapes
        for m, k, cap in shapes:
            assert cap * self.LARGEST <= isometries._EXACT_NUM, (m, k, cap)
            assert cap * self.LARGEST <= 2**53, (m, k, cap)  # so every element float is exact

    @pytest.mark.parametrize("make, shape", [
        (random_box_group, lambda seed: (1 + seed % 64,)),
        (random_fiber_group, lambda seed: (1 + seed % 6, 1 + seed % 4)),
    ], ids=["box", "fiber"])
    def test_drawn_translations_are_on_the_grid_within_twice_its_range(self, make, shape):
        for seed in range(40):
            group, _ = make(seed, *shape(seed))
            for g in group.generators:
                steps = g.trans / GRID_STEP
                assert np.array_equal(steps, np.round(steps))
                assert np.abs(g.trans).max() <= 2 * GRID_RANGE
                assert g.exact.den * GRID_STEP <= 1.0


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
    assert_self_image_contract(iso, box)
    got = box_image(iso, box)
    assert (got == box) == (got.lo == box.lo and got.hi == box.hi)


# -- the self-image contract ------------------------------------------------------
# box_image returns the box itself exactly when the image equals it, and a new
# box equal to the Fraction form otherwise.  Invariant boxes are orbit hulls
# under isometries that fix a point, so they have finite order.


def orbit_hull(iso: FiberPermIsometry, box: Box) -> Box:
    """The smallest box holding every iterate of box under iso (of finite order)."""
    lo, hi, image = list(box.lo), list(box.hi), ref_box_image(iso, box)
    while image != box:
        lo = [min(a, b) for a, b in zip(lo, image.lo)]
        hi = [max(a, b) for a, b in zip(hi, image.hi)]
        image = ref_box_image(iso, image)
    return Box(box.dim, tuple(lo), tuple(hi))


@st.composite
def point_fixing_isometry_and_box(draw):
    """x -> S(x - p) + p for a signed permutation S and a dyadic p, whose
    translation p - S p is exact in floats, and a box of any kind of bounds."""
    dim = draw(st.integers(1, 5))
    perm = np.array(draw(st.permutations(range(dim))))
    signs = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=dim, max_size=dim)))
    shift = draw(st.integers(-20, 20))
    p = np.array([draw(st.integers(-2**20, 2**20)) * 2.0 ** shift for _ in range(dim)])
    iso = FiberPermIsometry(perm, signs.reshape(dim, 1, 1), (p - signs * p[perm])[:, None])
    return iso, draw(boxes(dim))


def assert_self_image_contract(iso: FiberPermIsometry, box: Box):
    got, want = box_image(iso, box), ref_box_image(iso, box)
    assert_same_box(got, want)
    assert (got is box) == (want == box)


class TestSelfImage:
    @PROPERTY_SETTINGS
    @given(point_fixing_isometry_and_box())
    def test_an_invariant_box_is_its_own_image(self, pair):
        iso, box = pair
        hull = orbit_hull(iso, box)
        assert box_image(iso, hull) is hull
        assert_self_image_contract(iso, hull)
        assert_self_image_contract(iso, box)

    def test_hand_cases(self):
        third = Fraction(1, 3)
        centered = Box.bounds([-third], [third])  # den 3; the translations have den 4

        def line(sign, t):
            return FiberPermIsometry(np.array([0]), np.array([[[sign]]]), np.array([[t]]))

        identity, shift, mirror = line(1.0, 0.0), line(1.0, 0.75), line(-1.0, 0.75)
        about = Box.bounds([Fraction(3, 8) - third], [Fraction(3, 8) + third])
        for iso, box, own in ((identity, centered, True), (shift, centered, False),
                              (line(-1.0, 0.0), centered, True), (mirror, centered, False),
                              (mirror, about, True), (mirror, Box.point([Fraction(3, 8)]), True),
                              (mirror, Box.point([Fraction(1, 5)]), False)):
            assert (box_image(iso, box) is box) == own
            assert_self_image_contract(iso, box)
        # a swap, of either sign, with translations of two denominators
        square = Box.bounds([-third, -third], [third, third])
        for sign in (1.0, -1.0):
            for trans, own in ((np.zeros((2, 1)), True), (np.array([[0.5], [2.0 ** -60]]), False)):
                swap = FiberPermIsometry(np.array([1, 0]), np.full((2, 1, 1), sign), trans)
                assert (box_image(swap, square) is square) == own
                assert_self_image_contract(swap, square)
        # images whose lower bounds all match the box's and whose upper bounds do not
        tall = Box.bounds([0, 0], [1, 2])
        for sign, trans in ((1.0, [[0.0], [0.0]]), (-1.0, [[2.0], [1.0]])):
            swap = FiberPermIsometry(np.array([1, 0]), np.full((2, 1, 1), sign), np.array(trans))
            assert box_image(swap, tall).lo == tall.lo
            assert box_image(swap, tall) is not tall
            assert_self_image_contract(swap, tall)

    def test_the_empty_box_is_its_own_image(self):
        iso = FiberPermIsometry(np.array([1, 0]), -np.ones((2, 1, 1)), np.array([[0.5], [0.25]]))
        empty = Box.empty(2)
        assert box_image(iso, empty) is empty
        wrong_dim = Box.empty(3)  # an empty box is returned before the dimension check
        assert box_image(iso, wrong_dim) is wrong_dim

    def test_error_paths(self, rng):
        box = Box.bounds([0, 0], [1, 1])
        with pytest.raises(SpaceMismatchError, match="k=1"):
            box_image(random_iso(rng, 2, 2), box)
        with pytest.raises(SpaceMismatchError, match="k=1"):
            box_image(random_iso(rng, 2, 2), Box.empty(2))
        iso = FiberPermIsometry(np.array([2, 0, 1]), np.ones((3, 1, 1)), np.zeros((3, 1)))
        with pytest.raises(SpaceMismatchError, match="dimension"):
            box_image(iso, box)
        for maps, trans in ((np.array([[[1.0]], [[-1.0 + 1e-12]]]), np.zeros((2, 1))),
                            (np.ones((2, 1, 1)), np.array([[np.inf], [0.0]])),
                            (np.ones((2, 1, 1)), np.array([[0.0], [np.nan]]))):
            bad = FiberPermIsometry(np.array([1, 0]), maps, trans)
            with pytest.raises(ValueError, match="exactly"):
                box_image(bad, box)
