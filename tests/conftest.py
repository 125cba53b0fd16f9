import numpy as np
import pytest

from supfix.instances import unitary_group
from supfix.isometries import FiberPermIsometry


@pytest.fixture(scope="session")
def named_groups():
    """The named unitary groups, closed once per session."""
    return {name: unitary_group(name) for name in ("q8", "s3", "c12")}


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def group_stacks(group) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(perm, maps, trans): a group's elements as stacked float arrays, of
    shapes (n, m), (n, m, k, k) and (n, m, k), rebuilt from what the group
    keeps, as the package stacked them before it kept only those.

    A closed GroupSpec gives its exact form: fiber q // k of element i reads
    fiber src // k, and row q % k of its map is +-1 in column src % k.  An
    affine-action model gives its frame: the permutations sigma_l, frame
    map l in every fiber, and the realified targets.
    """
    if hasattr(group, "frame"):
        frame = group.frame
        n, size = frame.sigmas.shape
        maps = np.broadcast_to(frame.maps[:, None], (n, size) + frame.maps.shape[1:]).copy()
        return frame.sigmas, maps, group.trans
    form, (n, m, k) = group.exact, group.trans.shape
    maps = np.zeros((n, m * k, k))
    maps[np.arange(n)[:, None], np.arange(m * k), form.src % k] = form.sign
    return form.src[:, ::k] // k, maps.reshape(n, m, k, k), group.trans


@pytest.fixture(scope="session")
def stacks():
    """The function `group_stacks`.  A fixture because tests/ and
    perfbench/tests/ each have a module named conftest, so neither can be
    imported by name."""
    return group_stacks


@pytest.fixture(scope="session")
def elements():
    """elements(group): every element of a GroupSpec or an affine-action
    model, in element order, with element i built from row i of its
    `group_stacks` by the checking FiberPermIsometry constructor, so a test
    that reads the elements also re-checks each one."""

    def build(group) -> list[FiberPermIsometry]:
        return [FiberPermIsometry(*row) for row in zip(*group_stacks(group))]

    return build


@pytest.fixture(scope="session")
def awkward_clouds():
    """awkward_clouds(k): named (N, m, k) point stacks on which each
    sup-distance reduction must give the bytes of the expression it
    replaced: random points, one point, duplicate points, all points equal,
    and coordinates near 1e308 whose differences and squares overflow to
    inf.  k = 8 is the first fiber length numpy sums pairwise."""

    def build(k: int) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(100 + k)
        pts = rng.standard_normal((9, 4, k))
        signs = np.where(rng.random((5, 3, k)) < 0.5, -1.0, 1.0)
        return {
            "random": pts,
            "one_point": pts[:1].copy(),
            "duplicates": pts[[0, 1, 1, 2, 0, 3, 3]],
            "all_equal": np.repeat(pts[:1], 6, axis=0),
            "near_max": signs * (1.7e308 - 1e305 * rng.random((5, 3, k))),
        }

    return build
