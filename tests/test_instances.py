"""Instance generator guarantees: grid exactness, order caps, determinism."""

import hashlib

import numpy as np
import pytest

from supfix import instances
from supfix.errors import SamplingBudgetError
from supfix.centers import urns_center
from supfix.instances import (
    GRID_STEP,
    SAMPLE_MARGIN,
    certificate_samples,
    cayley_group,
    corrupt_cocycle_table,
    corrupt_derivation,
    random_box_group,
    random_cloud,
    random_fiber_group,
    random_inner_derivation,
    unitary_group,
)
from supfix.isometries import FiberPermIsometry, group_closure
from supfix.spaces import FIBER_URNS_CONSTANT, PointCloud, SupPoint, cloud_diameter, sup_distance


def ref_certificate_samples(cloud, z, constant, count, rng):
    """certificate_samples as it was before `_fiber_distances`: fiber radii by
    np.linalg.norm and step lengths by rng.uniform, as a raw array."""
    pts = cloud.points
    bound = constant * cloud_diameter(cloud)
    fiber_radii = np.linalg.norm(pts - z.fibers, axis=2).max(axis=0)
    slack = bound - fiber_radii
    m = z.m
    dirs = np.empty((count,) + z.fibers.shape)
    u = np.empty((count, m, 1))
    for i in range(count):
        rng.standard_normal(out=dirs[i])
        u[i] = rng.uniform(0.0, SAMPLE_MARGIN, size=(m, 1))
    norms = np.linalg.norm(dirs, axis=2, keepdims=True)
    norms[norms == 0.0] = 1.0
    return z.fibers + dirs / norms * (u * slack[:, None])


def on_grid(arr: np.ndarray) -> bool:
    scaled = np.asarray(arr) / GRID_STEP
    return bool(np.all(scaled == np.round(scaled)))


class TestRandomBoxGroup:
    @pytest.mark.parametrize("seed", range(15))
    def test_order_capped_and_exact_data(self, seed, elements):
        group, x0 = random_box_group(seed)
        assert 1 <= len(group) <= 48
        assert group.k == 1 and group.m == 8
        assert on_grid(x0.fibers)
        for g in elements(group):
            assert set(np.abs(g.maps).ravel()) <= {1.0}
            assert on_grid(g.trans)

    def test_deterministic(self):
        g1, x1 = random_box_group(7)
        g2, x2 = random_box_group(7)
        assert sup_distance(x1, x2) == 0.0
        assert len(g1) == len(g2)
        assert np.array_equal(g1.perm, g2.perm)
        assert np.array_equal(g1.maps, g2.maps)
        assert np.array_equal(g1.trans, g2.trans)

    def test_seeds_differ(self):
        g1, _ = random_box_group(1)
        g2, _ = random_box_group(2)
        different = len(g1) != len(g2) or not np.array_equal(g1.trans, g2.trans)
        assert different

    def test_has_common_fixed_point_by_construction(self):
        """Existence is certified by the descent reaching residual zero."""
        from supfix.iterate import fixed_point_residual, iterate_box

        group, x0 = random_box_group(9)
        fp, _ = iterate_box(group, x0)
        assert fixed_point_residual(group, fp) <= 1e-9


# sha256 over seeds 0-30 of random_box_group(seed, dim, max_order): perm,
# maps, trans, the exact form's arrays and den, the words and the seed point,
# as the commit before the Python-list order walk and the shared flip drew them
BOX_GROUP_DIGESTS = {
    (1, 48): "d256581bd642e1ae1d6ffc5fb454996dbbd9b6f5163267c89eb4c078ec3cfdcb",
    (2, 48): "bef0dc889e1e9b8a320b47a388ecabf30347ea38c39f28de5973aa4bf88a9f21",
    (8, 48): "32a363a6e6ea2bdf9d5c4c3cc6eed53983a2ed56927dbe4825e09e677063e253",
    (16, 64): "83e580a59b984cc57f293359a06b84ab07aba2a193f8ca2c63ecb181022ad8dd",
    (64, 512): "0ed29b8c75446c39a3c05a9f15bed099b825a95a707cb4809858bd8c381a64c6",
}


# The same digest over seeds 0-30 of random_fiber_group(seed, fibers,
# fiber_dim, max_order), as the commit before the shared fiber flip drew them
FIBER_GROUP_DIGESTS = {
    (5, 3, 48): "5a83244fd69a09206313fdc6e54dad3028a7612dd333289d14a807cda3d96269",
    (2, 2, 16): "5e7107e86f00ce837e9a680317af6983b881f8af1dc50d605d6d2869b36f7f3e",
    (3, 1, 24): "59383871174c219e6df1654efe2caeb6f682b0f58185affda2c70b9ef4e49f7f",
    (4, 4, 64): "872a3de1be207df6e85fe3da61330750e1ae2812d2a89f8344a4726bcfec5225",
    (8, 2, 128): "6a0458b9cd7a9e12cc0dc0c4e765c682cdf54ff4f1a51b5053fff866bf61c145",
}


def group_digest(draw, *args) -> str:
    h = hashlib.sha256()
    for seed in range(31):
        group, x0 = draw(seed, *args)
        form = group.exact
        for arr in (group.perm, group.maps, group.trans, form.src, form.sign, form.nums, x0.fibers):
            h.update(f"{arr.dtype}{arr.shape}".encode() + arr.tobytes())
        h.update(repr((group.words, form.den)).encode())
    return h.hexdigest()


class TestBoxDrawHelpers:
    @pytest.mark.parametrize("dim", range(1, 13))
    def test_signed_perm_order_is_the_closure_order(self, dim, rng):
        for _ in range(20):
            perm = rng.permutation(dim)
            signs = instances._random_signs(rng, dim)
            gen = FiberPermIsometry(perm, signs.reshape(dim, 1, 1), np.zeros((dim, 1)))
            assert instances._signed_perm_order(perm, signs) == len(group_closure([gen], cap=1000))

    @pytest.mark.parametrize("m, k", [(1, 1), (2, 1), (8, 1), (16, 1), (2, 2), (5, 3), (16, 8)])
    def test_flip_is_one_read_only_negation(self, m, k):
        flip = instances._flip(m, k)
        assert instances._flip(m, k) is flip
        assert instances._flip(m + 1, k) is not flip and instances._flip(m, k + 1) is not flip
        for arr in (flip.perm, flip.maps, flip.trans):
            assert not arr.flags.writeable
        x = np.arange(m * k, dtype=float).reshape(m, k) - 0.5
        assert flip.exact.sign.tolist() == [-1] * (m * k)
        assert flip.exact.src.tolist() == list(range(m * k))
        image = np.einsum("gij,gj->gi", flip.maps, x[flip.perm]) + flip.trans
        assert np.array_equal(image, -x)

    @pytest.mark.parametrize("dim, max_order", sorted(BOX_GROUP_DIGESTS))
    def test_random_box_group_bytes(self, dim, max_order):
        assert group_digest(random_box_group, dim, max_order) == BOX_GROUP_DIGESTS[dim, max_order]


class TestRandomFiberGroup:
    @pytest.mark.parametrize("seed", range(8))
    def test_order_and_structure(self, seed, elements):
        group, x0 = random_fiber_group(seed)
        assert 1 <= len(group) <= 48
        assert group.m == 5 and group.k == 3
        assert on_grid(x0.fibers)
        for g in elements(group):
            assert set(np.abs(g.maps).ravel()) <= {0.0, 1.0}
            assert on_grid(g.trans)

    def test_custom_sizes(self):
        group, x0 = random_fiber_group(3, fibers=2, fiber_dim=2, max_order=16)
        assert len(group) <= 16
        assert group.m == 2 and group.k == 2

    @pytest.mark.parametrize("shape", sorted(FIBER_GROUP_DIGESTS))
    def test_random_fiber_group_bytes(self, shape):
        assert group_digest(random_fiber_group, *shape) == FIBER_GROUP_DIGESTS[shape]


class TestSameStreamDraws:
    @pytest.mark.parametrize("k", [1, 3, 8, 16])
    def test_sign_draws_equal_choice(self, k):
        """The sign draw gives rng.choice's values and leaves the generator
        where choice leaves it."""
        for seed in range(300):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = instances._random_signs(ours, k)
            want = theirs.choice([-1.0, 1.0], size=k)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert ours.random() == theirs.random()

    @pytest.mark.parametrize("k", range(1, 13))  # past the 8-term pairwise sum
    def test_certificate_samples_bytes(self, awkward_clouds, k):
        """Samples and generator state equal the old draws and reductions; on
        coordinates near 1e308 both give non-finite samples, which the cloud
        refuses."""
        for name, pts in awkward_clouds(k).items():
            cloud = PointCloud(pts)
            zs = [SupPoint(pts[-1])] + ([] if name == "near_max" else [urns_center(cloud)])
            for z in zs:
                for count in (0, 1, 7):
                    ours, theirs = np.random.default_rng(k), np.random.default_rng(k)
                    with np.errstate(over="ignore", invalid="ignore"):
                        want = ref_certificate_samples(cloud, z, FIBER_URNS_CONSTANT, count, theirs)
                        if np.isfinite(want).all():
                            got = certificate_samples(cloud, z, FIBER_URNS_CONSTANT, count, ours)
                            assert got.points.tobytes() == want.tobytes(), name
                        else:
                            with pytest.raises(ValueError, match="finite"):
                                certificate_samples(cloud, z, FIBER_URNS_CONSTANT, count, ours)
                    assert ours.random() == theirs.random()


class TestSamplingBudget:
    @pytest.mark.parametrize(
        "draw",
        [
            lambda: random_box_group(0, dim=8, max_order=1),
            lambda: random_fiber_group(0, max_order=1),
            lambda: random_fiber_group(0, max_order=2),
        ],
    )
    def test_unmeetable_order_budget_raises(self, draw):
        with pytest.raises(SamplingBudgetError, match="draws"):
            draw()


class TestCloudsAndNamedGroups:
    def test_cloud_shapes(self):
        cloud = random_cloud(4, fibers=6, fiber_dim=3, points=9)
        assert cloud.points.shape == (9, 6, 3)

    def test_degenerate_cloud_is_spread(self, monkeypatch):
        """A draw of coincident points is moved apart, and the cloud returned
        (with its kept diameter) is the moved one."""

        class Coincident:
            def standard_normal(self, shape):
                return np.zeros(shape)

        monkeypatch.setattr(instances.np.random, "default_rng", lambda seed: Coincident())
        cloud = random_cloud(0, fibers=2, fiber_dim=1, points=3)
        want = np.zeros((3, 2, 1))
        want[0] += 1.0
        assert cloud.points.tobytes() == want.tobytes()
        assert cloud_diameter(cloud) == 1.0

    def test_unknown_unitary_group(self):
        with pytest.raises(ValueError):
            unitary_group("so3")

    @pytest.mark.parametrize("name", ["q8", "s3", "c12"])
    def test_named_groups_are_shared_and_read_only(self, name):
        group = unitary_group(name)
        assert unitary_group(name) is group
        for arr in (group.generators, group.elements, group.right, group.cayley):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]

    def test_cayley_group_parsing(self):
        assert len(cayley_group("cyclic:9")) == 9
        assert len(cayley_group("symmetric:4")) == 24
        with pytest.raises(ValueError):
            cayley_group("dihedral:4")
        with pytest.raises(ValueError):
            cayley_group("symmetric:9")


class TestCorruptors:
    def test_corrupt_derivation_changes_one_slot(self, named_groups):
        data, _ = random_inner_derivation(named_groups["q8"], 5)
        bad = corrupt_derivation(data, 6)
        changed = [
            i for i in range(len(data.group))
            if not np.array_equal(data.values[i], bad.values[i])
        ]
        assert len(changed) == 1 and changed[0] != 0

    def test_corrupt_derivation_deterministic(self, named_groups):
        data, _ = random_inner_derivation(named_groups["q8"], 5)
        b1, b2 = corrupt_derivation(data, 6), corrupt_derivation(data, 6)
        assert np.array_equal(b1.values, b2.values)

    def test_corrupt_table_changes_one_entry(self):
        g = cayley_group("symmetric:3")
        from supfix.instances import random_translation_cocycle

        c, _ = random_translation_cocycle(g, 1)
        bad = corrupt_cocycle_table(c, 2)
        assert (bad != c).sum() == 1
