"""Seeded random instances for tests, benchmarks and scenario files.

Box and fiber group data is drawn on the dyadic grid of multiples of
2^-16 inside [-2, 2].  Signed-permutation matrices map grid vectors to
grid vectors and differences of grid numbers are exact in double
precision, so the generated affine maps compose without rounding and
closures, orbits and invariance checks all hold exactly.  Group order is
kept small by drawing signed permutations, whose order is read off the
signed cycle structure (walked on Python lists), and rejecting draws that
are too large; after MAX_DRAWS rejected draws the budget counts as unmet
and SamplingBudgetError is raised, so no order budget can hang a caller.

Everything is driven by numpy's default_rng, so a seed pins the instance.
Box and fiber groups take their x -> -x generator from one checked,
read-only isometry per shape, which draws nothing from the stream.  The
drawn candidates, their grid conjugates and the grid seed point are new
arrays that are valid by construction (a permutation from
`rng.permutation`, signed-permutation fiber maps, finite grid numbers),
so they are wrapped by the unchecking `_trusted` constructors.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import lru_cache

import numpy as np

from .centers import urns_center
from .cocycles import CayleyGroup, DerivationData, inner_derivation, translation_cocycle
from .errors import GroupNotClosedError, SamplingBudgetError
from .isometries import FiberPermIsometry, GroupSpec, group_closure
from .spaces import FIBER_URNS_CONSTANT, PointCloud, SupPoint, _fiber_distances, cloud_diameter
from .unitary import UnitaryGroup, unitary_closure

GRID_STEP = 2.0 ** -16
GRID_RANGE = 2.0  # grid points live in [-GRID_RANGE, GRID_RANGE]
MAX_DRAWS = 1000  # rejection-sampling draws before an order budget counts as unmet
SAMPLE_MARGIN = 0.95  # share of the per-fiber slack a certificate sample may use
CORRUPTION_SCALE = 1e-2  # size of the perturbation the corrupt_* helpers add
_SIGNS = np.array([-1.0, 1.0])


def grid_point(rng: np.random.Generator, shape) -> np.ndarray:
    n = int(GRID_RANGE / GRID_STEP)
    return rng.integers(-n, n + 1, size=shape).astype(float) * GRID_STEP


def _signed_perm_order(perm: np.ndarray, signs: np.ndarray) -> int:
    """The order of x -> signs * x[perm]: the lcm over its cycles of the
    cycle length, doubled for a cycle whose signs multiply to -1."""
    perm, signs = perm.tolist(), signs.tolist()
    order = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, sign, i = 0, 1, start
        while not seen[i]:
            seen[i] = True
            sign *= signs[i]
            length += 1
            i = perm[i]
        order = math.lcm(order, length if sign > 0 else 2 * length)
    return order


@lru_cache(maxsize=64)
def _flip(m: int, k: int) -> FiberPermIsometry:
    """x -> -x on m fibers of R^k, checked once per shape; its arrays are read-only."""
    maps = np.broadcast_to(-np.eye(k), (m, k, k)).copy()
    return FiberPermIsometry(np.arange(m), maps, np.zeros((m, k)))


def _random_signs(rng: np.random.Generator, k: int) -> np.ndarray:
    """k signs +-1.0: the values `rng.choice([-1.0, 1.0], size=k)` draws, from
    the same stream words, without choice's per-call overhead."""
    return _SIGNS[rng.integers(0, 2, size=k)]


def _signed_perm_matrix(rng: np.random.Generator, k: int) -> np.ndarray:
    perm = rng.permutation(k)
    signs = _random_signs(rng, k)
    mat = np.zeros((k, k))
    mat[np.arange(k), perm] = signs
    return mat


def _conjugate_by_translation(lin: FiberPermIsometry, p: np.ndarray) -> FiberPermIsometry:
    """x -> L(x - p) + p for a checked linear L; fixes p by construction.
    Only the translation is new, finite grid data, so nothing is rechecked."""
    trans = p - np.einsum("gij,gj->gi", lin.maps, p[lin.perm])
    return FiberPermIsometry._trusted(lin.perm, lin.maps, trans)


def _draw_and_close(
    seed: int, shape: tuple[int, int], max_order: int,
    draw: Callable[[np.random.Generator, int], FiberPermIsometry | None],
) -> tuple[GroupSpec, SupPoint]:
    """The flip coin, the order budget, up to MAX_DRAWS draw(rng, budget)
    calls for a linear generator (None rejects a draw), the x -> -x
    generator, the grid conjugation point, the closure and the seed point."""
    rng = np.random.default_rng(seed)
    add_flip = bool(rng.random() < 0.5)
    budget = max_order // 2 if add_flip else max_order
    for _ in range(MAX_DRAWS):
        cand = draw(rng, budget)
        if cand is not None:
            break
    else:
        raise SamplingBudgetError(
            f"no generator of order <= {budget} in {MAX_DRAWS} draws; max_order is too small")
    lin_gens = [cand, _flip(*shape)] if add_flip else [cand]
    p = grid_point(rng, shape)
    gens = [_conjugate_by_translation(g, p) for g in lin_gens]
    return group_closure(gens, cap=max_order + 1), SupPoint._trusted(grid_point(rng, shape))


def random_box_group(
    seed: int, dim: int = 8, max_order: int = 48
) -> tuple[GroupSpec, SupPoint]:
    """A finite signed-permutation affine group on the dim-box, plus a seed point.

    The group is a linear signed-permutation group conjugated by a grid
    translation, so a common fixed point exists and all arithmetic in the
    descent is exact.
    """
    def draw(rng: np.random.Generator, budget: int) -> FiberPermIsometry | None:
        perm = rng.permutation(dim)
        signs = _random_signs(rng, dim)
        if _signed_perm_order(perm, signs) <= budget:
            return FiberPermIsometry._trusted(perm, signs.reshape(dim, 1, 1), np.zeros((dim, 1)))
        return None

    return _draw_and_close(seed, (dim, 1), max_order, draw)


def random_fiber_group(
    seed: int, fibers: int = 5, fiber_dim: int = 3, max_order: int = 48
) -> tuple[GroupSpec, SupPoint]:
    """Like random_box_group but with R^k fibers and signed-permutation fiber maps."""
    def draw(rng: np.random.Generator, budget: int) -> FiberPermIsometry | None:
        perm = rng.permutation(fibers)
        maps = np.stack([_signed_perm_matrix(rng, fiber_dim) for _ in range(fibers)])
        cand = FiberPermIsometry._trusted(perm, maps, np.zeros((fibers, fiber_dim)))
        try:
            closure = group_closure([cand], cap=budget + 1)
        except GroupNotClosedError:
            return None
        return cand if len(closure) <= budget else None

    return _draw_and_close(seed, (fibers, fiber_dim), max_order, draw)


def random_cloud(
    seed: int, fibers: int = 4, fiber_dim: int = 3, points: int = 10
) -> PointCloud:
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((points, fibers, fiber_dim))
    cloud = PointCloud(arr)
    if points > 1 and cloud_diameter(cloud) < 1e-6:
        arr[0] += 1.0  # degenerate draw; force a nonzero diameter
        cloud = PointCloud(arr)
    return cloud


def certificate_samples(
    cloud: PointCloud,
    z: SupPoint,
    constant: float,
    count: int,
    rng: np.random.Generator,
) -> PointCloud:
    """Centers y of radius constant * diam balls containing the cloud.

    Each sample moves away from the enclosing-ball center by at most
    SAMPLE_MARGIN of the per-fiber slack, so containment holds with room
    to spare and no rejection loop is needed.
    """
    pts = cloud.points
    bound = constant * cloud_diameter(cloud)
    fiber_radii = _fiber_distances(pts, z.fibers).max(axis=0)  # (m,)
    slack = bound - fiber_radii
    dirs = np.empty((count,) + z.fibers.shape)
    u = np.empty((count, z.m, 1))
    for i in range(count):  # draw order per sample: directions, then step lengths
        rng.standard_normal(out=dirs[i])
        rng.random(out=u[i])
    u *= SAMPLE_MARGIN  # uniform(0, SAMPLE_MARGIN) is 0.0 + SAMPLE_MARGIN * random()
    norms = _fiber_distances(dirs, 0.0)[:, :, np.newaxis]  # the floats of np.linalg.norm
    norms[norms == 0.0] = 1.0
    return PointCloud(z.fibers + dirs / norms * (u * slack[:, None]))


def random_certificate_instance(
    seed: int, fibers: int = 4, fiber_dim: int = 3, points: int = 10, samples: int = 50,
    constant: float | None = None,
) -> tuple[PointCloud, SupPoint, float, PointCloud]:
    """(cloud, z, constant, samples): a random cloud, its enclosing-ball
    center z and certificate samples around z, all pinned by seed.

    The cloud and the samples are drawn from two generators made with the
    same seed, so the first sample's direction is the cloud's first point
    normalized fiber by fiber (they agree to 1.1e-16 at seed 5 with 3 x 3
    fibers and 10 points).  Drawing them from one stream would change
    every sample, so it waits for a change that may move result bytes.
    """
    if constant is None:
        constant = FIBER_URNS_CONSTANT
    rng = np.random.default_rng(seed)
    cloud = random_cloud(seed, fibers, fiber_dim, points)
    z = urns_center(cloud)
    ys = certificate_samples(cloud, z, constant, samples, rng)
    return cloud, z, constant, ys


_NAMED_GENERATORS = {
    "q8": (np.array([[1j, 0], [0, -1j]]), np.array([[0, 1], [-1, 0]])),
    "s3": (
        np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        np.array([[0.0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    ),
    "c12": (np.diag([np.exp(1j * np.pi / 6), np.exp(-1j * np.pi / 6)]),),
}


def unitary_group(name: str) -> UnitaryGroup:
    """The named finite unitary group: `unitary_closure` of its generators
    with cap 64, so every request gets the one read-only group that the
    closure keeps, with its Cayley table and model frame."""
    try:
        gens = _NAMED_GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown group name {name!r}; choose from {sorted(_NAMED_GENERATORS)}")
    return unitary_closure(gens, cap=64)


def random_inner_derivation(group: UnitaryGroup, seed: int) -> tuple[DerivationData, np.ndarray]:
    rng = np.random.default_rng(seed)
    d = group.d
    t0 = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    return inner_derivation(group, t0), t0


def corrupt_derivation(data: DerivationData, seed: int) -> DerivationData:
    """Perturb one non-identity value; the law then fails at about CORRUPTION_SCALE."""
    rng = np.random.default_rng(seed)
    idx = int(rng.integers(1, len(data.group)))
    d = data.d
    bump = CORRUPTION_SCALE * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    values = data.values.copy()
    values[idx] += bump
    return DerivationData(data.group, values)


def cayley_group(name: str) -> CayleyGroup:
    """'cyclic:n' or 'symmetric:n' (n small)."""
    kind, _, arg = name.partition(":")
    n = int(arg)
    if kind == "cyclic":
        return CayleyGroup.cyclic(n)
    if kind == "symmetric":
        if n > 5:
            raise ValueError("symmetric groups beyond n=5 are not sensible here")
        return CayleyGroup.symmetric(n)
    raise ValueError(f"unknown group family {kind!r}")


def random_translation_cocycle(group: CayleyGroup, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(len(group))
    return translation_cocycle(group, t), t


def corrupt_cocycle_table(c: np.ndarray, seed: int) -> np.ndarray:
    """Perturb one entry off the identity row; the law then fails at about
    CORRUPTION_SCALE.  The trivial group has only the identity row, so its
    one entry is perturbed (c[e, e] = 0 is forced by the law)."""
    rng = np.random.default_rng(seed)
    n = c.shape[0]
    out = np.array(c, dtype=float)
    g = int(rng.integers(1, n)) if n > 1 else 0
    s = int(rng.integers(0, n))
    out[g, s] += CORRUPTION_SCALE * (1.0 + rng.random())
    return out
