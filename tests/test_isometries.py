"""Isometry algebra and group closure tests.

Composition and inversion are checked pointwise against direct
evaluation, which is the defining property and needs no knowledge of the
internal data layout.
"""

from fractions import Fraction

import numpy as np
import pytest

from supfix.boxes import Box
from supfix.errors import GroupNotClosedError, SpaceMismatchError
from supfix.isometries import (
    FiberPermIsometry,
    box_image,
    compose,
    group_closure,
    invert,
    orbit,
)
from supfix.spaces import SupPoint, cloud_diameter, sup_distance


def random_iso(rng, m, k) -> FiberPermIsometry:
    perm = rng.permutation(m)
    maps = []
    for _ in range(m):
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        maps.append(q)
    return FiberPermIsometry(perm, np.stack(maps), rng.standard_normal((m, k)))


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
                assert group.element_index(compose(a, b)) is not None

    def test_inverse_in_group(self):
        g = FiberPermIsometry(np.array([1, 2, 3, 0]), np.ones((4, 1, 1)), np.zeros((4, 1)))
        group = group_closure([g])
        for a in group.elements:
            group.element_index(invert(a))

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
            import itertools

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
