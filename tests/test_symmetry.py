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
"""

from fractions import Fraction

import numpy as np
import pytest
from test_groups import compose
from test_isometries import apply

from supfix.boxes import box_center
from supfix.instances import grid_point, random_box_group, random_fiber_group
from supfix.isometries import FiberPermIsometry, box_image, group_closure
from supfix.iterate import iterate_box, orbit_center_fixed_point

DIMS = (4, 8, 16, 32)
MAX_ORDER = 64
FIBER_SHAPES = ((5, 3), (8, 4), (4, 2))
FIBER_MAX_ORDER = 48


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
