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
