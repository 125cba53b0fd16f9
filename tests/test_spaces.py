import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from supfix import spaces
from supfix.errors import EmptyDomainError, SpaceMismatchError
from supfix.instances import random_cloud
from supfix.spaces import PointCloud, SupPoint, cloud_diameter, sup_distance


def naive_sup_distance(a, b):
    """Loop-level oracle: max over fibers of the Euclidean fiber distance."""
    worst = 0.0
    for i in range(a.shape[0]):
        worst = max(worst, math.sqrt(sum((x - y) ** 2 for x, y in zip(a[i], b[i]))))
    return worst


def ref_sup_distance(a, b):
    """The expression sup_distance used before `_fiber_distances`, with
    overflow to inf silenced as the package silences it."""
    with np.errstate(over="ignore"):
        diff = a - b
        return float(np.max(np.sqrt(np.sum(diff * diff, axis=1))))


def ref_diameter(pts):
    """The expression the diameter used before `_fiber_distances`: every
    ordered pair, the point with itself included, in one (N, N, m, k)
    array, with overflow to inf silenced."""
    with np.errstate(over="ignore"):
        diff = pts[:, np.newaxis, :, :] - pts[np.newaxis, :, :, :]
        return float(np.max(np.max(np.sqrt(np.sum(diff * diff, axis=3)), axis=2)))


def top_level_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(assigned, imported): the names a module binds at its top level by
    assignment and by `from ... import`."""
    assigned, imported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            assigned.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return assigned, imported


def test_spaces_defines_the_one_block_budget():
    """Every blocked reduction sizes its blocks from `spaces._BLOCK_BYTES`:
    no other module defines a block-size constant, and the modules with a
    blocked loop import this one."""
    package = Path(spaces.__file__).parent
    names = {path.stem: top_level_names(ast.parse(path.read_text()))
             for path in package.glob("*.py")}
    blocks = {module: sorted(n for n in assigned if "BLOCK" in n.upper())
              for module, (assigned, _) in names.items()}
    assert {module: b for module, b in blocks.items() if b} == {"spaces": ["_BLOCK_BYTES"]}
    assert spaces._BLOCK_BYTES == 384 * 1024
    for module in ("centers", "cocycles", "witnesses"):
        assert "_BLOCK_BYTES" in names[module][1], module


class TestSupPoint:
    def test_of_coords_promotes_to_column(self):
        p = SupPoint(np.array([1.0, -2.0, 3.0]))  # an (m,) array is a box-space point
        assert p.m == 3 and p.k == 1
        assert p.fibers.shape == (3, 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SupPoint(np.array([[np.nan]]))

    def test_fibers_read_only(self):
        p = SupPoint(np.array([1.0])[:, None])
        with pytest.raises(ValueError):
            p.fibers[0, 0] = 2.0

    def test_callers_array_stays_writable_and_unshared(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        p = SupPoint(x)
        assert x.flags.writeable
        assert not np.shares_memory(x, p.fibers)
        x[0, 0] = 9.0
        assert p.fibers[0, 0] == 1.0

    def test_ragged_point_is_a_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            SupPoint([[1.0, 2.0], [3.0]])


class TestSupDistance:
    @pytest.mark.parametrize("m,k", [(1, 1), (4, 1), (3, 3), (6, 2), (2, 5)])
    def test_matches_naive_oracle(self, rng, m, k):
        for _ in range(25):
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((m, k))
            got = sup_distance(SupPoint(a), SupPoint(b))
            assert got == pytest.approx(naive_sup_distance(a, b), abs=1e-12)

    def test_metric_axioms_sampled(self, rng):
        pts = [SupPoint(rng.standard_normal((3, 2))) for _ in range(6)]
        for x in pts:
            assert sup_distance(x, x) == 0.0
        for x in pts:
            for y in pts:
                assert sup_distance(x, y) == pytest.approx(sup_distance(y, x))
                for z in pts:
                    assert sup_distance(x, z) <= sup_distance(x, y) + sup_distance(y, z) + 1e-12

    def test_shape_mismatch_raises(self):
        with pytest.raises(SpaceMismatchError):
            sup_distance(SupPoint(np.array([1.0])[:, None]), SupPoint(np.zeros((1, 2))))


class TestPointCloud:
    def test_from_array_and_len(self, rng):
        arr = rng.standard_normal((5, 3, 2))
        cloud = PointCloud(arr)
        assert len(cloud) == 5
        assert np.array_equal(cloud.points, arr)

    def test_box_space_stack_promotes_to_columns(self, rng):
        arr = rng.standard_normal((4, 3))
        cloud = PointCloud(arr)
        assert cloud.points.shape == (4, 3, 1)
        assert cloud.points[:, :, 0].tobytes() == arr.tobytes()

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(SpaceMismatchError):
            PointCloud([SupPoint(np.array([1.0])[:, None]).fibers, np.zeros((2, 1))])

    def test_diameter_matches_pairwise_loop(self, rng):
        for _ in range(20):
            arr = rng.standard_normal((7, 4, 3))
            cloud = PointCloud(arr)
            want = max(
                naive_sup_distance(arr[i], arr[j])
                for i in range(len(arr))
                for j in range(i + 1, len(arr))
            )
            assert cloud_diameter(cloud) == pytest.approx(want, abs=1e-12)

    def test_single_point_diameter_zero(self):
        assert cloud_diameter(PointCloud([SupPoint(np.array([1.0, 2.0])[:, None]).fibers])) == 0.0

    @pytest.mark.parametrize("build", ["from_array", "from_iter"])
    def test_stack_and_diameter_are_kept(self, rng, build):
        arr = rng.standard_normal((6, 4, 3))
        if build == "from_array":
            cloud = PointCloud(arr)
        else:  # a sequence of per-point arrays
            cloud = PointCloud([SupPoint(row).fibers for row in arr])
        stack = cloud.points
        assert not stack.flags.writeable and not np.shares_memory(stack, arr)
        assert stack.tobytes() == arr.tobytes()
        diff = arr[:, None] - arr[None, :]
        want = float(np.max(np.max(np.sqrt(np.sum(diff * diff, axis=3)), axis=2)))
        assert repr(cloud_diameter(cloud)) == repr(want)
        assert vars(cloud)["_diameter"] == want  # kept for the next caller

    def test_empty_cloud_has_no_diameter(self):
        cloud = PointCloud(np.empty((0, 2, 1)))
        with pytest.raises(EmptyDomainError):
            cloud_diameter(cloud)


# Fiber lengths from 1 past numpy's first pairwise row (8) and the schema cap (8).
FIBER_LENGTHS = range(1, 13)


class SpyAdd:
    """np.add for `spaces`, counting its reduce calls."""

    def __init__(self):
        self.reductions = 0

    def __call__(self, *args, **kwargs):
        return np.add(*args, **kwargs)

    def reduce(self, *args, **kwargs):
        self.reductions += 1
        return np.add.reduce(*args, **kwargs)


class NumpyWithSpyAdd:
    def __init__(self, add):
        self.add = add

    def __getattr__(self, name):
        return getattr(np, name)


class TestFiberNormBytes:
    """Every value taken through `_fiber_distances` has the bytes of the
    expression it replaced, for every fiber length up to the schema cap
    and past numpy's 8-term pairwise switch.  The package calls run under
    the suite's error filter for RuntimeWarning: the near-max clouds
    overflow to inf without a warning."""

    @pytest.mark.parametrize("k", FIBER_LENGTHS)
    def test_fiber_norms_equal_sum_and_linalg_norm(self, awkward_clouds, k):
        for name, pts in awkward_clouds(k).items():
            with np.errstate(over="ignore"):  # the reference expressions warn
                diff = pts[:, np.newaxis] - pts[np.newaxis]
                want = np.sqrt(np.sum(diff * diff, axis=-1))
                assert np.linalg.norm(diff, axis=-1).tobytes() == want.tobytes(), name
            got = spaces._fiber_distances(pts[:, np.newaxis], pts[np.newaxis])
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
            diff = pts[:, np.newaxis] - np.zeros_like(pts)[np.newaxis]  # a stack given up
            got = spaces._fiber_distances(diff, pts[np.newaxis], out=diff)
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("k", FIBER_LENGTHS)
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_radius_stacks_equal_sum_and_linalg_norm(self, awkward_clouds, rng, k, rows):
        """The (rows, N, m, k) stacks `centers._radii` passes: a block of
        centers with a new axis against the whole cloud."""
        for name, pts in awkward_clouds(k).items():
            zs = np.concatenate([pts[::-1], rng.standard_normal(pts[:2].shape)])
            for s in range(0, len(zs), rows):
                with np.errstate(over="ignore"):
                    diff = zs[s:s + rows, np.newaxis] - pts
                    want = np.sqrt(np.sum(diff * diff, axis=-1))
                    assert np.linalg.norm(diff, axis=-1).tobytes() == want.tobytes(), name
                got = spaces._fiber_distances(zs[s:s + rows, np.newaxis], pts)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("k", FIBER_LENGTHS)
    def test_short_fibers_are_summed_without_reduce(self, rng, monkeypatch, k):
        """Fibers of fewer than 8 entries are summed as column adds, longer
        ones by np.add.reduce, once per call."""
        spy = SpyAdd()
        monkeypatch.setattr(spaces, "np", NumpyWithSpyAdd(spy))
        pts = rng.standard_normal((5, 3, k))
        got = spaces._fiber_distances(pts[:, np.newaxis], pts)
        assert spy.reductions == (0 if k < 8 else 1)
        monkeypatch.undo()
        assert got.tobytes() == spaces._fiber_distances(pts[:, np.newaxis], pts).tobytes()

    @pytest.mark.parametrize("k", FIBER_LENGTHS)
    def test_sup_distance_bytes(self, awkward_clouds, k):
        for name, pts in awkward_clouds(k).items():
            for a in pts:
                for b in pts:
                    want = ref_sup_distance(a, b)
                    assert repr(sup_distance(SupPoint(a), SupPoint(b))) == repr(want), name

    def test_a_distance_whose_square_overflows_reads_inf(self):
        """Above about 1.3e154 the square of a difference overflows, so the
        distance reads inf, with no warning (the suite makes one an error)."""
        x, y = SupPoint(np.array([[1e160], [0.0]])), SupPoint(np.zeros((2, 1)))
        assert sup_distance(x, y) == math.inf
        assert cloud_diameter(PointCloud(np.stack([x.fibers, y.fibers]))) == math.inf

    @pytest.mark.parametrize("k", FIBER_LENGTHS)
    @pytest.mark.parametrize("block", [None, 1, 5])
    def test_diameter_bytes_in_any_block_size(self, awkward_clouds, monkeypatch, k, block):
        for name, pts in awkward_clouds(k).items():
            if block is not None:  # blocks of one pair, and blocks that split rows
                monkeypatch.setattr(spaces, "_BLOCK_BYTES", block * pts[0].nbytes)
            want = ref_diameter(pts)
            got = cloud_diameter(PointCloud(pts))
            assert repr(got) == repr(want), name

    @pytest.mark.parametrize("block", [None, 1, 2, 3])
    def test_every_pair_is_reached(self, rng, monkeypatch, block):
        """Whichever pair is the unique farthest one, in whichever block of
        pairs it falls, the diameter is its distance."""
        base = 0.1 * rng.standard_normal((6, 3, 2))
        if block is not None:  # block pairs of differences per block
            monkeypatch.setattr(spaces, "_BLOCK_BYTES", block * base[0].nbytes)
        for i in range(6):
            for j in range(i + 1, 6):
                pts = base.copy()
                pts[i, 1] += 10.0
                pts[j, 1] -= 10.0
                want = ref_diameter(pts)
                assert want == ref_sup_distance(pts[i], pts[j])
                assert repr(cloud_diameter(PointCloud(pts))) == repr(want)

    def test_cap_cloud_diameter_in_bounded_memory(self):
        """The (200, 16, 8) cloud of the urns_certificate schema cap (seed 7):
        the same float the (N, N, m, k) expression gave, with a peak of at
        most 4 MB where that expression took about 87 MB."""
        cloud = PointCloud(random_cloud(7, 16, 8, 200).points)  # diameter not yet taken
        tracemalloc.start()
        try:
            got = cloud_diameter(cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.hex() == "0x1.1a5ea02cf7345p+3"
        assert peak <= 4 * 10**6


class TestPointsFromStack:
    """The cloud's one check of a whole (N, m, k) stack must refuse and
    accept what SupPoint refuses and accepts row by row."""

    @pytest.mark.parametrize("shape", [(5, 3, 2), (4, 1, 1), (3, 6)])
    def test_rows_equal_checked_points(self, rng, shape):
        arr = rng.standard_normal(shape)
        points = PointCloud(arr).points
        assert len(points) == shape[0]
        assert points.flags.c_contiguous and not points.flags.writeable
        for p, row in zip(points, arr):
            want = SupPoint(row)
            assert p.shape == want.fibers.shape
            assert p.tobytes() == want.fibers.tobytes()
        with pytest.raises(ValueError):
            points[0, 0, 0] = 1.0

    def test_points_do_not_share_the_caller_array(self, rng):
        arr = rng.standard_normal((3, 2, 2))
        points = PointCloud(arr).points
        assert not np.shares_memory(points, arr)
        arr[0, 0, 0] += 1.0  # the caller's array stays writable
        assert points[0, 0, 0] != arr[0, 0, 0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, rng, bad):
        arr = rng.standard_normal((6, 3, 2))
        arr[4, 2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            SupPoint(arr[4])
        with pytest.raises(ValueError, match="finite"):
            PointCloud(arr)

    @pytest.mark.parametrize("shape", [(3,), (2, 0, 1), (2, 3, 0), (2, 0), (1, 2, 2, 2)])
    def test_malformed_shapes_refused(self, shape):
        with pytest.raises(SpaceMismatchError):
            SupPoint(np.zeros(shape)[0])
        with pytest.raises(SpaceMismatchError):
            PointCloud(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(0,), (0, 0, 1), (0, 3, 0), (0, 2, 2, 2)])
    def test_malformed_empty_shapes_refused(self, shape):
        with pytest.raises(SpaceMismatchError):
            PointCloud(np.zeros(shape))

    def test_empty_stack_gives_empty_cloud(self):
        cloud = PointCloud(np.zeros((0, 3, 2)))
        assert len(cloud) == 0
        assert cloud.points.shape == (0, 3, 2) and not cloud.points.flags.writeable
