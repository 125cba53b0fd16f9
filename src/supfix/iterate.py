"""Common fixed points of finite isometry groups by admissible-set descent.

For a k = 1 (box) group the construction is fully exact: start from
A_0, the intersection of the balls of exact orbit-diameter radius around
the orbit of a seed point (taken in integers, so exact for any float
seed point), then repeatedly apply the contraction step
`box_H` at constant 1/2.  Every iterate is a group-invariant dyadic box
and its diameter at least halves per step, both checked exactly, so the
boxes shrink onto a single common fixed point.

For general fibers the orbit-center route applies: the fiberwise
smallest-enclosing-ball center of an orbit is equivariant, hence fixed by
the whole group up to solver noise.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boxes import Box, ball_intersection, box_H, box_center
from .centers import urns_center
from .errors import InvarianceViolationError, SpaceMismatchError
from .isometries import GroupSpec, box_image, orbit
from .spaces import SupPoint, _fiber_norms

BOX_CONTRACTION = Fraction(1, 2)
MAX_ITER = 200  # contraction steps before the descent stops unconverged


def fixed_point_residual(group: GroupSpec, x: SupPoint) -> float:
    """max over all group elements g of d_sup(g x, x)."""
    diff = group.images(x)
    diff -= x.fibers
    return float(_fiber_norms(diff).max())


def exact_orbit_diameter(group: GroupSpec, x0: SupPoint) -> tuple[int, np.ndarray, Fraction]:
    """(den, nums, diameter): the orbit of x0, exactly, and its sup-diameter
    (k = 1 only).

    Row i of nums holds the numerators over den of g_i(x0), the element
    applied in exact arithmetic (`GroupSpec.exact_images`), so the orbit is
    the group's true orbit also for a point off the data grid, whose float
    images round.  The sup-diameter is the largest per-coordinate spread,
    max - min, taken on those integers.
    """
    if group.k != 1:
        raise SpaceMismatchError("exact orbit diameters are defined for k=1")
    den, nums = group.exact_images(x0)
    spread = (nums.max(axis=0) - nums.min(axis=0)).max()
    return den, nums, Fraction(int(spread), den)


@dataclass(frozen=True)
class IterationTrace:
    """The sequence of invariant boxes produced by the descent."""

    boxes: tuple[Box, ...]
    diameters_exact: tuple[Fraction, ...]
    terminated: str  # "converged" or "max_iter"

    def __len__(self) -> int:
        return len(self.boxes)

    def write_csv(self, path) -> None:
        dim = self.boxes[0].dim
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "diameter"] + [f"c{i}" for i in range(dim)])
            for step, box in enumerate(self.boxes):
                center = [repr(float(x)) for x in box.center_exact()]
                writer.writerow([step, repr(float(self.diameters_exact[step]))] + center)


def iterate_box(
    group: GroupSpec, x0: SupPoint, tol: float = 1e-10
) -> tuple[SupPoint, IterationTrace]:
    """Shrink an invariant box onto a common fixed point of the group.

    Each iterate is checked for exact invariance under every generator;
    a failure means the input data was not an exact isometry group and
    raises InvarianceViolationError rather than returning a bogus point.
    """
    if group.k != 1:
        raise SpaceMismatchError("box descent requires k=1 fibers")
    den, nums, delta = exact_orbit_diameter(group, x0)
    box = ball_intersection(nums, delta, den=den)
    if box.is_empty:
        raise InvarianceViolationError("initial ball intersection is empty")

    boxes = [box]
    diams = [box.diameter()]
    tol_exact = Fraction(tol)
    reason = "max_iter"
    for _ in range(MAX_ITER):
        for gi, g in enumerate(group.generators):
            if box_image(g, box) != box:
                raise InvarianceViolationError(
                    f"iterate is not invariant under generator {gi}"
                )
        if diams[-1] <= tol_exact:
            reason = "converged"
            break
        box = box_H(box, BOX_CONTRACTION)
        if box.is_empty:
            raise InvarianceViolationError("contraction step emptied the iterate")
        boxes.append(box)
        diams.append(box.diameter())

    trace = IterationTrace(tuple(boxes), tuple(diams), reason)
    return box_center(boxes[-1]), trace


def orbit_center_fixed_point(group: GroupSpec, x0: SupPoint) -> SupPoint:
    """Fixed point as the relative center of the orbit of x0.

    The smallest enclosing ball of each fiber is unique and isometry
    equivariant, so the center is group-fixed up to numerical noise;
    callers judge the quality via `fixed_point_residual`.
    """
    return urns_center(orbit(group, x0))
