"""Symmetry gates: a solver commutes with the isometries of its space.

If z is fixed by a group G, then h z is fixed by h G h^-1 for every
isometry h.  The box descent is exact and deterministic, so it should map
its whole run that way: started from h x0 on the conjugate group, it makes
the images under h of the boxes it made from x0 on G, with the same exact
diameters, and its fixed point is h applied to the first run's.  No
solver meets this relation by accident, and it shares no code with the
descent's own checks.

The fiber route's center is a float enclosing-ball center of the orbit,
fiber by fiber.  A linear h (a fiber permutation with signed
permutations inside the fibers) only moves and negates floats, so the
conjugate run's center is h z byte for byte.  With a grid translation
added to h, h z rounds and the conjugate run solves shifted
coordinates, so there the two agree within 1e-12.

The matrix kind is conjugated by a signed permutation matrix U: the group
becomes U G U^T and the data delta'(U g U^T) = U delta(g) U^T, which is a
cocycle of the conjugate group exactly when delta is one of G.  The
conjugate closure lists U g U^T in the same element order, every method
makes the same decision on it, and its residuals are within
`RESIDUAL_GAP` of the first run's.  They are not all byte-equal: over
these cases 517 of 1050 residual pairs were, and the worst gap was 3.2e-15.

The certificate kind's space has two symmetries that need no float
arithmetic: the order of the fibers and the order of the points.
Permuting the fibers of the cloud and of the samples alike permutes the
center's fibers byte for byte and leaves the certificate report equal,
float for float: each fiber is solved on its own, and the report's
maxima do not depend on the fibers' order.  Permuting the points changes
the order Welzl's algorithm meets them in, so there the center moves
within 1e-12 (1.9e-15 at worst over these cases) and the report keeps
its decision and its sample counts.

The group-algebra kind is relabeled by an inner automorphism
phi(x) = k x k^-1 of `symmetric:n`, with c'[phi g, phi s] = c[g, s].
The law check reads the same three floats for each (g, h, s) as for
(phi g, phi h, phi s), so the worst law defect is byte-equal.  The
barycenter t' sums its rows in another order, so t' o phi and t, and the
two residuals, agree within `RESIDUAL_GAP` (4.9e-15 and 1.8e-15 at worst
over these cases), and the flags are equal.  `cyclic:n` is left out:
its valid table is zero, so relabeling it moves nothing.
"""

from fractions import Fraction

import numpy as np
import pytest
from test_groups import compose
from test_isometries import apply

from supfix.boxes import box_center
from supfix.centers import urns_center, verify_urns_certificate
from supfix.cocycles import CayleyGroup, DerivationData
from supfix.instances import (
    _NAMED_GENERATORS,
    corrupt_cocycle_table,
    corrupt_derivation,
    grid_point,
    random_box_group,
    random_certificate_instance,
    random_fiber_group,
    random_inner_derivation,
    random_translation_cocycle,
    unitary_group,
)
from supfix.isometries import FiberPermIsometry, box_image, group_closure
from supfix.iterate import iterate_box, orbit_center_fixed_point
from supfix.spaces import PointCloud
from supfix.unitary import unitary_closure
from supfix.witnesses import WITNESS_METHODS, finite_group_algebra_witness, solve_witness

DIMS = (4, 8, 16, 32)
MAX_ORDER = 64
FIBER_SHAPES = ((5, 3), (8, 4), (4, 2))
FIBER_MAX_ORDER = 48
# Largest difference allowed between a residual and its conjugate run's,
# far below FLAG_TOL = 1e-6.
RESIDUAL_GAP = 1e-12


def random_box_isometry(rng: np.random.Generator, dim: int) -> FiberPermIsometry:
    """x -> signs * x[perm] + t: a random signed permutation plus a grid translation."""
    signs = rng.choice([-1.0, 1.0], size=dim)
    return FiberPermIsometry(rng.permutation(dim), signs.reshape(dim, 1, 1),
                             grid_point(rng, (dim, 1)))


def inverse(h: FiberPermIsometry) -> FiberPermIsometry:
    """h^-1: fiber perm[g] of x is maps[g]^T (y_g - t_g), exact on the grid."""
    perm = np.argsort(h.perm)
    maps = h.maps.transpose(0, 2, 1)[perm]
    return FiberPermIsometry(perm, maps, -np.einsum("gij,gj->gi", maps, h.trans[perm]))


def exact_apply(h: FiberPermIsometry, point) -> tuple[Fraction, ...]:
    """h applied to a point of Fractions, exactly."""
    signs, trans = h.maps[:, 0, 0].tolist(), h.trans[:, 0].tolist()
    return tuple(Fraction(s) * point[p] + Fraction(t) for s, p, t in zip(signs, h.perm, trans))


@pytest.mark.parametrize("seed", range(1, 41))
def test_box_descent_commutes_with_isometries(seed):
    dim = DIMS[seed % len(DIMS)]
    group, x0 = random_box_group(seed, dim, MAX_ORDER)
    h = random_box_isometry(np.random.default_rng(1000 + seed), dim)
    h_inv = inverse(h)
    conjugate = group_closure([compose(h, compose(g, h_inv)) for g in group.generators],
                              cap=MAX_ORDER + 1)
    assert len(conjugate) == len(group)

    z, trace = iterate_box(group, x0)
    hz, h_trace = iterate_box(conjugate, apply(h, x0))

    assert h_trace.terminated == trace.terminated
    assert h_trace.diameters_exact == trace.diameters_exact
    for box, h_box in zip(trace.boxes, h_trace.boxes):
        assert box_image(h, box) == h_box
        assert apply(h, box_center(box)).fibers.tobytes() == box_center(h_box).fibers.tobytes()
    assert exact_apply(h, trace.boxes[-1].center_exact()) == h_trace.boxes[-1].center_exact()
    assert apply(h, z).fibers.tobytes() == hz.fibers.tobytes()


def random_fiber_isometry(rng: np.random.Generator, m: int, k: int,
                          translate: bool) -> FiberPermIsometry:
    """A random fiber permutation with a signed permutation inside each
    fiber, plus a grid translation when `translate`."""
    maps = np.zeros((m, k, k))
    for fiber_map in maps:
        fiber_map[np.arange(k), rng.permutation(k)] = rng.choice([-1.0, 1.0], size=k)
    trans = grid_point(rng, (m, k)) if translate else np.zeros((m, k))
    return FiberPermIsometry(rng.permutation(m), maps, trans)


@pytest.mark.parametrize("seed", range(1, 31))
@pytest.mark.parametrize("shape", FIBER_SHAPES)
def test_fiber_center_commutes_with_isometries(shape, seed):
    group, x0 = random_fiber_group(seed, *shape, FIBER_MAX_ORDER)
    z = orbit_center_fixed_point(group, x0)
    rng = np.random.default_rng(1000 + seed)
    for translate in (False, True):
        h = random_fiber_isometry(rng, *shape, translate)
        h_inv = inverse(h)
        conjugate = group_closure([compose(h, compose(g, h_inv)) for g in group.generators],
                                  cap=FIBER_MAX_ORDER + 1)
        assert len(conjugate) == len(group)
        hz = orbit_center_fixed_point(conjugate, apply(h, x0)).fibers
        want = apply(h, z).fibers
        if translate:
            assert np.abs(hz - want).max() <= 1e-12
        else:
            assert hz.tobytes() == want.tobytes()


def signed_permutation_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    """A random d x d matrix with one entry of +1 or -1 in each row and
    column, drawn again while it is I or -I, whose conjugation moves nothing."""
    while True:
        u = np.zeros((d, d))
        u[np.arange(d), rng.permutation(d)] = rng.choice([-1.0, 1.0], size=d)
        if not np.array_equal(u, u[0, 0] * np.eye(d)):
            return u


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("name", sorted(_NAMED_GENERATORS))
def test_witness_decisions_commute_with_conjugation(name, seed):
    group = unitary_group(name)
    u = signed_permutation_matrix(np.random.default_rng(seed), group.d)
    conjugate = unitary_closure([u @ g @ u.T for g in _NAMED_GENERATORS[name]], cap=64)
    assert np.array_equal(conjugate.elements, u @ group.elements @ u.T)
    for data_seed in range(1, 6):
        valid, _ = random_inner_derivation(group, data_seed)
        for data in (valid, corrupt_derivation(valid, data_seed + 1)):
            moved = DerivationData(conjugate, u @ data.values @ u.T)
            for method in WITNESS_METHODS:
                want, got = solve_witness(data, method), solve_witness(moved, method)
                assert got.flagged == want.flagged, (method, data_seed)
                for field in ("model_residual", "witness_residual", "fixed_point_residual"):
                    a, b = getattr(want, field), getattr(got, field)
                    assert (a is None) == (b is None)
                    assert a is None or abs(a - b) <= RESIDUAL_GAP, (method, field, a, b)


CERTIFICATE_SHAPE = (4, 3, 10)  # fibers, fiber_dim, points
CERTIFICATE_SAMPLES = 50


def assert_certificate_commutes(seed: int, fibers: np.ndarray, sample_fibers: np.ndarray,
                                points: np.ndarray):
    """The certificate case of seed, its cloud's fibers permuted by fibers
    and its samples' by sample_fibers, then its points by points."""
    cloud, z, c, ys = random_certificate_instance(seed, *CERTIFICATE_SHAPE, CERTIFICATE_SAMPLES)
    want = verify_urns_certificate(cloud, z, c, ys)
    moved = PointCloud(cloud.points[:, fibers])
    hz = urns_center(moved)
    assert hz.fibers.tobytes() == z.fibers[fibers].tobytes()
    assert verify_urns_certificate(moved, hz, c, PointCloud(ys.points[:, sample_fibers])) == want
    shuffled = PointCloud(cloud.points[points])
    qz = urns_center(shuffled)
    assert np.abs(qz.fibers - z.fibers).max() <= 1e-12
    got = verify_urns_certificate(shuffled, qz, c, ys)
    assert (got.ok, got.checked_samples, got.rejected_samples) == (
        want.ok, want.checked_samples, want.rejected_samples)


def certificate_permutations(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(fiber permutation, point permutation) drawn for seed."""
    rng = np.random.default_rng(1000 + seed)
    return rng.permutation(CERTIFICATE_SHAPE[0]), rng.permutation(CERTIFICATE_SHAPE[2])


@pytest.mark.parametrize("seed", range(60))
def test_certificate_commutes_with_fiber_and_point_order(seed):
    fibers, points = certificate_permutations(seed)
    assert_certificate_commutes(seed, fibers, fibers, points)


def test_the_certificate_gate_sees_samples_permuted_unlike_the_cloud():
    for seed in range(10):
        fibers, points = certificate_permutations(seed)
        with pytest.raises(AssertionError):
            assert_certificate_commutes(seed, fibers, np.roll(fibers, 1), points)


def relabeled(c: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """c'[phi g, phi s] = c[g, s]."""
    out = np.empty_like(c)
    out[np.ix_(phi, phi)] = c
    return out


def assert_group_algebra_commutes(group: CayleyGroup, c: np.ndarray, phi: np.ndarray):
    want = finite_group_algebra_witness(group, c)
    got = finite_group_algebra_witness(group, relabeled(c, phi))
    assert got.law_defect.hex() == want.law_defect.hex()
    assert got.flagged == want.flagged
    assert np.abs(got.t_witness[phi] - want.t_witness).max() <= RESIDUAL_GAP
    assert abs(got.residual - want.residual) <= RESIDUAL_GAP


@pytest.mark.parametrize("seed", range(1, 9))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_group_algebra_witness_commutes_with_inner_automorphisms(n, seed):
    group = CayleyGroup.symmetric(n)
    k = int(np.random.default_rng(1000 + seed).integers(1, len(group)))
    phi = group.table[group.table[k], group.inverse[k]]  # x -> k x k^-1
    valid, _ = random_translation_cocycle(group, seed)
    for c in (valid, corrupt_cocycle_table(valid, seed + 1)):
        assert_group_algebra_commutes(group, c, phi)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_the_group_algebra_gate_sees_a_relabeling_that_is_no_automorphism(n):
    group = CayleyGroup.symmetric(n)
    size = len(group)
    sigma = np.concatenate([[0], 1 + np.random.default_rng(n).permutation(size - 1)])
    assert not np.array_equal(sigma[group.table], group.table[np.ix_(sigma, sigma)])
    for seed in range(1, 3):
        valid, _ = random_translation_cocycle(group, seed)
        with pytest.raises(AssertionError):
            assert_group_algebra_commutes(group, valid, sigma)
