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
"""

from fractions import Fraction

import numpy as np
import pytest
from test_groups import compose
from test_isometries import apply

from supfix.boxes import box_center
from supfix.cocycles import DerivationData
from supfix.instances import (
    _NAMED_GENERATORS,
    corrupt_derivation,
    grid_point,
    random_box_group,
    random_fiber_group,
    random_inner_derivation,
    unitary_group,
)
from supfix.isometries import FiberPermIsometry, box_image, group_closure
from supfix.iterate import iterate_box, orbit_center_fixed_point
from supfix.unitary import unitary_closure
from supfix.witnesses import WITNESS_METHODS, solve_witness

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
