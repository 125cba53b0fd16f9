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


@pytest.fixture(scope="session")
def elements():
    """elements(group): every element of a GroupSpec, in element order, with
    element i built from row i of its stacks by the checking
    FiberPermIsometry constructor, so a test that reads the elements also
    re-checks each one.  A fixture because tests/ and perfbench/tests/
    each have a module named conftest, so neither can be imported by name."""

    def build(group) -> list[FiberPermIsometry]:
        return [FiberPermIsometry(group.perm[i], group.maps[i], group.trans[i])
                for i in range(len(group))]

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
