"""Exception taxonomy shared across the package.

Structural errors (wrong shapes, mismatched spaces) are distinguished from
domain errors (empty inputs), data inconsistencies (cocycle violations,
box iterates that fail their exact invariance check) and resource caps
(group closure limit, sampling draws), because the scenario runner maps
them to different exit codes.
"""


class SupfixError(Exception):
    """Base class for all package-specific errors."""


class SpaceMismatchError(SupfixError):
    """Operands live in different model spaces (shape or kind mismatch)."""


class EmptyDomainError(SupfixError):
    """An operation that requires a nonempty input received an empty one."""


class GroupNotClosedError(SupfixError):
    """Closure under composition exceeded the element cap.

    Bounded orbits of infinite groups are outside the finite model; the cap
    is the only way to detect them.
    """


class SamplingBudgetError(SupfixError):
    """Rejection sampling of a random instance used up its fixed number of draws.

    Raised when no draw meets the requested group-order budget, which for
    small budgets may be impossible; the runner reports it like a malformed
    scenario.
    """


class CocycleInconsistencyError(SupfixError):
    """Derivation values do not satisfy the derivation law.

    Carries the offending pair of element labels and the violation size.
    """

    def __init__(self, label_a: str, label_b: str, defect: float):
        self.label_a = label_a
        self.label_b = label_b
        self.defect = defect
        super().__init__(
            f"derivation law violated on pair ({label_a}, {label_b}): "
            f"defect {defect:.3e}"
        )


class InvarianceViolationError(SupfixError):
    """A box of the exact descent (`iterate_box`) is empty or not invariant
    under a generator."""


class ScenarioFormatError(SupfixError):
    """A scenario file does not match the documented schema or its invariants."""
