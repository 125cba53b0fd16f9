"""Relative-center and certificate tests.

The certificate checker is itself exercised against hand-made failures,
so a passing certificate in the property runs means something.
"""

import math

import numpy as np
import pytest
from test_isometries import witness_group

from supfix import centers
from supfix.boxes import bounding_box, box_center
from supfix.centers import center_radius, urns_center, verify_urns_certificate
from supfix.errors import EmptyDomainError, SpaceMismatchError
from supfix.instances import certificate_samples, random_cloud
from supfix.isometries import orbit
from supfix.seb import seb_center
from supfix.spaces import (
    FIBER_URNS_CONSTANT,
    PointCloud,
    SupPoint,
    cloud_diameter,
    sup_distance,
)


def no_samples(cloud: PointCloud) -> PointCloud:
    """A zero-sample cloud of the cloud's space."""
    return PointCloud(np.empty((0,) + cloud.points.shape[1:]))


def ref_sup_distances(a, b):
    """The old d_sup reduction over the broadcast of two (..., m, k) arrays:
    two short-axis maxes, fibers then points, with overflow to inf
    silenced as the package silences it."""
    with np.errstate(over="ignore"):
        diff = a - b
        return np.max(np.sqrt(np.sum(diff * diff, axis=-1)), axis=-1)


def ref_radii(cloud_pts, zs):
    """The old radii: one (S, N, m, k) array, max over fibers, then over points."""
    return ref_sup_distances(zs[:, np.newaxis], cloud_pts).max(axis=1)


class TestUrnsCenter:
    def test_k1_equals_bounding_box_midpoint(self, rng):
        for _ in range(20):
            cloud = PointCloud(rng.standard_normal((7, 4, 1)))
            z = urns_center(cloud)
            mid = box_center(bounding_box(cloud))
            assert sup_distance(z, mid) <= 1e-9

    def test_radius_at_most_diameter_over_sqrt2(self, rng):
        """Per-fiber enclosing balls give the Jung-type bound in every fiber."""
        for _ in range(50):
            cloud = PointCloud(rng.standard_normal((9, 3, 3)))
            z = urns_center(cloud)
            assert center_radius(cloud, z) <= cloud_diameter(cloud) / math.sqrt(2) + 1e-9

    def test_single_point_cloud(self):
        cloud = PointCloud(np.ones((1, 2, 3)))
        z = urns_center(cloud)
        assert sup_distance(z, SupPoint(cloud.points[0])) == 0.0

    def test_empty_cloud_has_no_center_and_no_radius(self):
        cloud = PointCloud(np.empty((0, 2, 3)))
        with pytest.raises(EmptyDomainError):
            urns_center(cloud)
        with pytest.raises(EmptyDomainError):
            center_radius(cloud, SupPoint(np.zeros((2, 3))))

    def test_translation_equivariance(self, rng):
        arr = rng.standard_normal((6, 3, 2))
        shift = rng.standard_normal((3, 2))
        z1 = urns_center(PointCloud(arr))
        z2 = urns_center(PointCloud(arr + shift))
        assert np.allclose(z1.fibers + shift, z2.fibers, atol=1e-9)


def fibers_cloud(*fibers) -> PointCloud:
    """The cloud whose fiber g holds the (N, k) points fibers[g]."""
    return PointCloud(np.stack(fibers, axis=1))


def solved_centers(cloud: PointCloud) -> np.ndarray:
    """Each fiber's own seb_center center: the bytes urns_center must give."""
    pts = cloud.points
    return np.stack([seb_center(pts[:, g])[0] for g in range(pts.shape[1])])


def mirrored_fibers(cloud: PointCloud, solved: np.ndarray) -> list[int]:
    """The fibers g whose points equal, as floats, the negated points of an
    earlier fiber whose center has no zero coordinate."""
    pts = cloud.points
    return [g for g in range(pts.shape[1])
            if any(solved[i].all() and np.array_equal(pts[:, g], -pts[:, i]) for i in range(g))]


@pytest.fixture()
def seb_calls(monkeypatch):
    """The point counts of the seb_center calls urns_center makes."""
    calls = []
    monkeypatch.setattr(centers, "seb_center", lambda points: calls.append(len(points)) or seb_center(points))
    return calls


class TestMirroredFibers:
    """A fiber that is the negation of an earlier one takes the negated
    center without a seb_center call, and every fiber keeps the bytes of
    its own seb_center center."""

    def derived_fibers(self, cloud, seb_calls) -> list[int]:
        """The mirrored fibers, once urns_center is checked to give the
        solved bytes with one seb_center call per other fiber."""
        solved = solved_centers(cloud)
        derived = mirrored_fibers(cloud, solved)
        assert urns_center(cloud).fibers.tobytes() == solved.tobytes()
        assert len(seb_calls) == cloud.points.shape[1] - len(derived)
        return derived

    @pytest.fixture()
    def a(self, rng):
        return rng.standard_normal((7, 3))

    @pytest.mark.parametrize("order, derived", [((1, -1), [1]), ((-1, 1), [1]),
                                                ((1, -1, 1), [1, 2]), ((1, 1, -1, -1), [2, 3])])
    def test_mirror_pairs_and_chains(self, a, seb_calls, order, derived):
        """Either order, and chains l = -g = i: a derived fiber is a partner too."""
        assert self.derived_fibers(fibers_cloud(*(sign * a for sign in order)), seb_calls) == derived

    def test_a_fiber_next_to_other_fibers(self, a, rng, seb_calls):
        b = rng.standard_normal((7, 3))
        assert self.derived_fibers(fibers_cloud(a, b, -b, a + 1.0, -a), seb_calls) == [2, 4]

    def test_one_ulp_off_a_mirror_is_solved(self, a, seb_calls):
        near = -a
        near[3, 1] = np.nextafter(near[3, 1], np.inf)
        assert self.derived_fibers(fibers_cloud(a, near), seb_calls) == []

    def test_a_partner_center_with_a_zero_coordinate_is_solved(self, seb_calls):
        """The center of a and of 0.0 - a is (0.0, 1.0, 2.0); -center
        would carry -0.0."""
        a = np.array([[-1.0, 1.0, 2.0], [1.0, 1.0, 2.0], [0.5, 0.5, 2.0], [-0.25, 1.5, 2.0]])
        assert solved_centers(fibers_cloud(a))[0].tolist() == [0.0, 1.0, 2.0]
        assert self.derived_fibers(fibers_cloud(a, 0.0 - a), seb_calls) == []

    def test_a_single_point_with_a_zero_coordinate_is_solved(self, seb_calls):
        """A single distinct point is its own center, signed zeros included."""
        a = np.array([[0.0, 2.0, -3.0]] * 4)
        assert self.derived_fibers(fibers_cloud(a, 0.0 - a), seb_calls) == []

    @pytest.mark.parametrize("negate", [np.negative, lambda x: 0.0 - x], ids=["minus", "zero_minus"])
    def test_mirrors_up_to_signed_zeros(self, a, rng, seb_calls, negate):
        """Points with 0.0 and -0.0 coordinates; 0.0 - a matches -a only as
        floats, not in bytes."""
        a[rng.random(a.shape) < 0.2] = 0.0
        a[rng.random(a.shape) < 0.2] = -0.0
        assert (-a).tobytes() != (0.0 - a).tobytes()
        assert self.derived_fibers(fibers_cloud(a, negate(a)), seb_calls) == [1]

    @pytest.mark.parametrize("name", ["q8", "2T", "2I"])
    def test_witness_model_orbits(self, name, seb_calls):
        """The orbit of the origin under a group that holds -I: fiber(-w) = -fiber(w)."""
        group = witness_group(name)
        assert self.derived_fibers(orbit(group, SupPoint(np.zeros((group.m, group.k)))), seb_calls)

    def test_random_clouds_have_no_mirrors(self, seb_calls):
        cloud = random_cloud(7, fibers=5, fiber_dim=3, points=12)
        assert self.derived_fibers(cloud, seb_calls) == []


class TestCertificate:
    def test_valid_center_passes(self, rng):
        for seed in range(30):
            cloud = random_cloud(seed, fibers=int(rng.integers(1, 7)), fiber_dim=3)
            z = urns_center(cloud)
            ys = certificate_samples(cloud, z, FIBER_URNS_CONSTANT, 20, rng)
            rep = verify_urns_certificate(cloud, z, FIBER_URNS_CONSTANT, ys)
            assert rep.ok
            assert rep.checked_samples == 20 and rep.rejected_samples == 0
            assert rep.radius <= FIBER_URNS_CONSTANT * rep.diameter + 1e-10

    def test_far_candidate_fails_radius_condition(self, rng):
        cloud = random_cloud(3)
        z = urns_center(cloud)
        far = SupPoint(z.fibers + 10.0)
        rep = verify_urns_certificate(cloud, far, FIBER_URNS_CONSTANT, no_samples(cloud))
        assert not rep.ok
        assert rep.checked_samples == 0 and rep.rejected_samples == 0

    def test_distant_valid_ball_center_fails_second_condition(self):
        """A z that encloses the cloud but sits far from a legitimate ball
        center y must be rejected by the pairing condition.  Two antipodal
        points of the lens of valid centers around a two-point cloud are
        farther apart than the bound, so this genuinely discriminates."""
        a = 0.1
        cloud = PointCloud(np.array([[[-a, 0.0]], [[a, 0.0]]]))
        bound = FIBER_URNS_CONSTANT * cloud_diameter(cloud)
        height = 0.99 * math.sqrt(2.0) * a
        z = SupPoint(np.array([[0.0, height]]))
        y = SupPoint(np.array([[0.0, -height]]))
        assert center_radius(cloud, z) <= bound
        assert center_radius(cloud, y) <= bound
        assert sup_distance(z, y) > bound
        rep = verify_urns_certificate(cloud, z, FIBER_URNS_CONSTANT, PointCloud([y.fibers]))
        assert not rep.ok

    def test_invalid_samples_counted_not_failed(self, rng):
        cloud = random_cloud(5)
        z = urns_center(cloud)
        bad_y = z.fibers + 100.0
        rep = verify_urns_certificate(cloud, z, FIBER_URNS_CONSTANT, PointCloud([bad_y]))
        assert rep.ok
        assert rep.rejected_samples == 1 and rep.checked_samples == 0

    def test_array_form_matches_sample_by_sample_definition(self, rng):
        """Radii, counts, gap and verdict equal the values taken one sample
        at a time with sup_distance, on a mix of valid and far-off samples."""
        cloud = random_cloud(17, fibers=4, fiber_dim=3, points=12)
        z = urns_center(cloud)
        valid = certificate_samples(cloud, z, FIBER_URNS_CONSTANT, 12, rng).points
        far = valid[:6] + rng.normal(scale=3.0, size=valid[:6].shape)
        samples = PointCloud(np.concatenate([valid, far])[rng.permutation(18)])
        ys = [SupPoint(y) for y in samples.points]
        bound = FIBER_URNS_CONSTANT * cloud_diameter(cloud) + 1e-10

        def radius(c):
            return max(sup_distance(c, SupPoint(x)) for x in cloud.points)

        verdicts = []
        for cand in (z, SupPoint(z.fibers + 2.0)):
            checked = [y for y in ys if radius(y) <= bound]
            gaps = [sup_distance(cand, y) for y in checked]
            rep = verify_urns_certificate(cloud, cand, FIBER_URNS_CONSTANT, samples)
            assert rep.radius == radius(cand) == center_radius(cloud, cand)
            assert rep.checked_samples == len(checked) and 0 < len(checked) < len(ys)
            assert rep.rejected_samples == len(ys) - len(checked)
            assert rep.worst_center_gap == max(gaps)
            assert rep.ok is (radius(cand) <= bound and all(g <= bound for g in gaps))
            verdicts.append(rep.ok)
        assert verdicts == [True, False]
        assert [center_radius(cloud, y) for y in ys] == [radius(y) for y in ys]

    def test_zero_samples_check_the_radius_alone(self, rng):
        """`samples: 0` draws an empty cloud, which the checker accepts."""
        cloud = random_cloud(4)
        z = urns_center(cloud)
        drawn = certificate_samples(cloud, z, FIBER_URNS_CONSTANT, 0, rng)
        assert drawn.points.shape == (0,) + z.fibers.shape
        for ys in (drawn, no_samples(cloud)):
            rep = verify_urns_certificate(cloud, z, FIBER_URNS_CONSTANT, ys)
            assert rep.ok and rep.worst_center_gap == 0.0
            assert rep.checked_samples == 0 and rep.rejected_samples == 0
            assert rep.radius == center_radius(cloud, z)

    def test_samples_from_another_space_raise(self):
        cloud = random_cloud(2, fibers=3, fiber_dim=3)
        z = urns_center(cloud)
        for shape in ((1, 3, 1), (0, 3, 1), (2, 2, 3)):
            with pytest.raises(SpaceMismatchError):
                verify_urns_certificate(cloud, z, FIBER_URNS_CONSTANT, PointCloud(np.zeros(shape)))
        with pytest.raises(SpaceMismatchError):
            verify_urns_certificate(cloud, SupPoint(np.zeros((3, 1))), FIBER_URNS_CONSTANT,
                                    no_samples(cloud))
        with pytest.raises(SpaceMismatchError):
            center_radius(cloud, SupPoint(np.zeros((3, 1))))

    def test_certificate_scales_with_constant(self, rng):
        """The same center passes at any constant at or above 1/sqrt(2)."""
        cloud = random_cloud(11)
        z = urns_center(cloud)
        for c in (1 / math.sqrt(2) + 1e-6, 0.8, FIBER_URNS_CONSTANT, 0.95):
            ys = certificate_samples(cloud, z, c, 10, rng)
            assert verify_urns_certificate(cloud, z, c, ys).ok


class TestReductionBytes:
    """Radii and gaps taken through `_fiber_distances` with one max over the
    flattened (N m) axis have the bytes of the old two-max expressions."""

    @pytest.mark.parametrize("k", range(1, 13))  # past the 8-term pairwise sum
    @pytest.mark.parametrize("block", [None, 1, 7])
    def test_radii_bytes_in_any_block_size(self, awkward_clouds, monkeypatch, rng, k, block):
        for name, pts in awkward_clouds(k).items():
            if block is not None:  # one center per block, or a few
                monkeypatch.setattr(centers, "_BLOCK_ELEMENTS", block * pts.size)
            zs = np.concatenate([pts, pts[:2] + rng.standard_normal(pts[:2].shape)])
            want = ref_radii(pts, zs)
            got = centers._radii(pts, zs)
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("k", range(1, 13))  # past the 8-term pairwise sum
    def test_certificate_report_bytes(self, awkward_clouds, rng, k):
        """Radius, gap, counts and verdict against the old reductions, for
        the stack as its own samples and for samples around its center."""
        for name, pts in awkward_clouds(k).items():
            cloud = PointCloud(pts)
            for z in (SupPoint(pts[0]), SupPoint(0.5 * pts[-1])):
                for ys in (pts, z.fibers + 0.3 * rng.standard_normal(pts.shape)):
                    bound = FIBER_URNS_CONSTANT * cloud_diameter(cloud) + 1e-10
                    radii = ref_radii(pts, np.concatenate([z.fibers[np.newaxis], ys]))
                    checked = ys[~(radii[1:] > bound)]
                    gaps = ref_sup_distances(z.fibers, checked)
                    rep = verify_urns_certificate(cloud, z, FIBER_URNS_CONSTANT,
                                                  PointCloud(ys))
                    assert repr(rep.radius) == repr(float(radii[0])), name
                    assert repr(rep.worst_center_gap) == repr(float(gaps.max(initial=0.0)))
                    assert rep.checked_samples == len(checked)
                    assert rep.rejected_samples == len(ys) - len(checked)
                    assert rep.ok is bool(radii[0] <= bound and not np.any(gaps > bound))


class TestCertificateSamples:
    def test_samples_are_valid_ball_centers(self, rng):
        for seed in range(10):
            cloud = random_cloud(seed, fibers=5, fiber_dim=3, points=8)
            z = urns_center(cloud)
            bound = FIBER_URNS_CONSTANT * cloud_diameter(cloud)
            for y in certificate_samples(cloud, z, FIBER_URNS_CONSTANT, 15, rng).points:
                assert center_radius(cloud, SupPoint(y)) <= bound

    def test_samples_are_read_only_points_of_the_space(self, rng):
        cloud = random_cloud(3, fibers=4, fiber_dim=2, points=6)
        z = urns_center(cloud)
        ys = certificate_samples(cloud, z, FIBER_URNS_CONSTANT, 7, rng)
        assert type(ys) is PointCloud and len(ys) == 7
        assert ys.points.shape == (7,) + z.fibers.shape
        assert not ys.points.flags.writeable

    def test_non_finite_samples_refused(self, rng):
        cloud = random_cloud(3, fibers=4, fiber_dim=2, points=6)
        with pytest.raises(ValueError, match="finite"):
            certificate_samples(cloud, urns_center(cloud), math.inf, 5, rng)
