"""Common fixed points of finite isometry groups on sup-norm model spaces.

The package has three layers:

* geometry of the model spaces: points with Euclidean fibers under the
  sup metric, exact dyadic box algebra, enclosing-ball centers;
* finite groups acting by fiber-permuting affine isometries, with an
  exact contracting descent onto a common fixed point;
* derivation-style cocycles on finite unitary groups, solved for inner
  witnesses through the model-space embedding, plus the block-triangular
  similarity that absorbs a solved cocycle.
"""

from .boxes import Box, ball_intersection, bounding_box, box_A, box_H, box_center, intersect
from .centers import CertificateReport, center_radius, urns_center, verify_urns_certificate
from .cocycles import (
    CayleyGroup,
    DerivationData,
    check_cocycle,
    cocycle_defect,
    extend_cocycle,
    inner_derivation,
    translation_cocycle,
    translation_cocycle_defect,
)
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
from .isometries import (
    FiberPermIsometry,
    GroupSpec,
    box_image,
    compose,
    group_closure,
    invert,
    orbit,
)
from .iterate import (
    IterationTrace,
    fixed_point_residual,
    iterate_box,
    orbit_center_fixed_point,
)
from .runner import run_scenario, run_suite
from .scenarios import validate_scenario, validate_suite
from .seb import seb_center
from .spaces import (
    FIBER_URNS_CONSTANT,
    PointCloud,
    SupPoint,
    cloud_diameter,
    sup_distance,
)
from .unitary import (
    NormingSet,
    UnitaryGroup,
    basis_orbit_norming_set,
    embed,
    tilde_permutation,
    unitary_closure,
)
from .witnesses import (
    AffineActionModel,
    GroupAlgebraReport,
    SimilarityReport,
    WitnessReport,
    build_affine_action,
    build_similarity,
    finite_group_algebra_witness,
    solve_witness,
)

__version__ = "0.1.0"

__all__ = [
    "FIBER_URNS_CONSTANT",
    "AffineActionModel",
    "Box",
    "CayleyGroup",
    "CertificateReport",
    "CocycleInconsistencyError",
    "DerivationData",
    "EmptyDomainError",
    "FiberPermIsometry",
    "GroupAlgebraReport",
    "GroupNotClosedError",
    "GroupSpec",
    "InvarianceViolationError",
    "IterationTrace",
    "NormingSet",
    "PointCloud",
    "SamplingBudgetError",
    "ScenarioFormatError",
    "SimilarityReport",
    "SpaceMismatchError",
    "SupPoint",
    "SupfixError",
    "UnitaryGroup",
    "WitnessReport",
    "ball_intersection",
    "basis_orbit_norming_set",
    "bounding_box",
    "box_A",
    "box_H",
    "box_center",
    "box_image",
    "build_affine_action",
    "build_similarity",
    "center_radius",
    "check_cocycle",
    "cloud_diameter",
    "cocycle_defect",
    "compose",
    "embed",
    "extend_cocycle",
    "finite_group_algebra_witness",
    "fixed_point_residual",
    "group_closure",
    "inner_derivation",
    "intersect",
    "invert",
    "iterate_box",
    "orbit",
    "orbit_center_fixed_point",
    "run_scenario",
    "run_suite",
    "seb_center",
    "solve_witness",
    "sup_distance",
    "tilde_permutation",
    "translation_cocycle",
    "translation_cocycle_defect",
    "unitary_closure",
    "urns_center",
    "validate_scenario",
    "validate_suite",
    "verify_urns_certificate",
]
