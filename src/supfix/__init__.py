"""Common fixed points of finite isometry groups on sup-norm model spaces.

The package has three layers:

* geometry of the model spaces: points with Euclidean fibers under the
  sup metric, exact dyadic box algebra, enclosing-ball centers;
* finite groups acting by fiber-permuting affine isometries, with an
  exact contracting descent onto a common fixed point;
* derivation-style cocycles on finite unitary groups, solved for inner
  witnesses through the model-space embedding, plus the block-triangular
  similarity that absorbs a solved cocycle.

The package root exports the scenario runner and the error types; each
layer is reached through its module (`supfix.iterate`, `supfix.centers`,
...), all of which importing the runner loads.
"""

from .errors import (
    CocycleInconsistencyError,
    EmptyDomainError,
    GroupNotClosedError,
    InvarianceViolationError,
    SamplingBudgetError,
    ScenarioFormatError,
    SpaceMismatchError,
    SupfixError,
)
from .runner import run_scenario, run_suite

__version__ = "0.1.0"

__all__ = [
    "CocycleInconsistencyError",
    "EmptyDomainError",
    "GroupNotClosedError",
    "InvarianceViolationError",
    "SamplingBudgetError",
    "ScenarioFormatError",
    "SpaceMismatchError",
    "SupfixError",
    "run_scenario",
    "run_suite",
]
