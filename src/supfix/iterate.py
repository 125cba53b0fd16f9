"""Common fixed points of finite isometry groups by admissible-set descent.

For a k = 1 (box) group the construction is fully exact: start from
A_0, the intersection of the balls of exact orbit-diameter radius around
the orbit of a seed point (all integer numerators over one denominator,
so exact for any float seed point), then repeatedly apply the contraction
step `box_H` at constant 1/2.  Every iterate is a dyadic box, checked
exactly for invariance under every generator, and its diameter at least
halves per step (`IterationTrace.halving_exact` states that exactly), so
the boxes shrink onto a single common fixed point.

The descent's bookkeeping stays in the boxes' integers: a diameter is
width / den, the tolerance test width * tol_den <= tol_num * den, the
halving test 2 w_b d_a <= w_a d_b, and a reported diameter the int
quotient width / den, which is correctly rounded and so the float of the
Fraction.  The trace reads its `Fraction` diameters off its boxes
(`Box.diameter`), and only when they are read.
The fixed point is the last box's center, wrapped without the point
constructor's checks (`boxes.box_center`): its floats are new and finite
by construction.

For general fibers the orbit-center route applies: the fiberwise
smallest-enclosing-ball center of an orbit is equivariant, hence fixed by
the whole group up to solver noise.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .boxes import Box, ball_intersection, box_H, box_center
from .centers import urns_center
from .errors import InvarianceViolationError, SpaceMismatchError
from .isometries import GroupSpec, HasImages, box_image, orbit
from .spaces import SupPoint, _fiber_distances

BOX_CONTRACTION = Fraction(1, 2)
MAX_ITER = 200  # contraction steps before the descent stops unconverged


def fixed_point_residual(group: HasImages, x: SupPoint) -> float:
    """max over all group elements g of d_sup(g x, x)."""
    images = group.images(x)
    return float(_fiber_distances(images, x.fibers, out=images).max())


def exact_orbit_diameter(group: GroupSpec, x0: SupPoint) -> tuple[int, np.ndarray, int]:
    """(den, nums, spread): the orbit of x0, exactly, and its sup-diameter
    spread / den (k = 1 only).

    Row i of nums holds the numerators over den of g_i(x0), the element
    applied in exact arithmetic (`GroupSpec.exact_images`), so the orbit is
    the group's true orbit also for a point off the data grid, whose float
    images round.  The sup-diameter is the largest per-coordinate spread,
    max - min, taken in Python ints on the column extremes.
    """
    if group.k != 1:
        raise SpaceMismatchError("exact orbit diameters are defined for k=1")
    den, nums = group.exact_images(x0)
    top, bottom = nums.max(axis=0).tolist(), nums.min(axis=0).tolist()
    return den, nums, max(map(operator.sub, top, bottom))


@dataclass(frozen=True)
class IterationTrace:
    """The sequence of invariant boxes produced by the descent.

    widths[i] is (width, den) of box i, whose sup-diameter is width / den,
    so every statement about the diameters is decided on those integers;
    the exact diameters are read off the boxes (`Box.diameter`) when first
    read.
    """

    boxes: tuple[Box, ...]
    widths: tuple[tuple[int, int], ...]
    terminated: str  # "converged" or "max_iter"

    def __len__(self) -> int:
        return len(self.boxes)

    @cached_property
    def diameters_exact(self) -> tuple[Fraction, ...]:
        return tuple(box.diameter() for box in self.boxes)

    def diameter(self, step: int) -> float:
        """Box `step`'s diameter as a float: int true division is correctly
        rounded, so this is float(diameters_exact[step])."""
        w, d = self.widths[step]
        return w / d

    @property
    def halving_exact(self) -> bool:
        """Whether every diameter is at most half the one before, exactly:
        w_b / d_b <= (w_a / d_a) / 2 is 2 w_b d_a <= w_a d_b."""
        widths = self.widths
        return all(2 * wb * da <= wa * db for (wa, da), (wb, db) in zip(widths, widths[1:]))

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

    Every iterate the trace holds, the last one too, is checked for exact
    invariance under every generator; a failure means the input data was
    not an exact isometry group and raises InvarianceViolationError rather
    than returning a bogus point.  The descent ends "converged" at the first
    of the first MAX_ITER iterates with diameter at most tol, else
    "max_iter" after MAX_ITER contraction steps.  tol is read as a float,
    and the test diameter <= tol is taken exactly on the box's integers.
    """
    if group.k != 1:
        raise SpaceMismatchError("box descent requires k=1 fibers")
    den, nums, spread = exact_orbit_diameter(group, x0)
    box = ball_intersection(nums, spread, den)
    if box.is_empty:
        raise InvarianceViolationError("initial ball intersection is empty")

    boxes, widths = [box], [(box._width(), box._den)]
    tol_num, tol_den = float(tol).as_integer_ratio()
    while True:
        for gi, g in enumerate(group.generators):
            if box_image(g, box) != box:
                raise InvarianceViolationError(f"iterate is not invariant under generator {gi}")
        if len(boxes) > MAX_ITER:
            reason = "max_iter"
            break
        width, den = widths[-1]
        if width * tol_den <= tol_num * den:  # diameter <= tol
            reason = "converged"
            break
        box = box_H(box, BOX_CONTRACTION)
        if box.is_empty:
            raise InvarianceViolationError("contraction step emptied the iterate")
        boxes.append(box)
        widths.append((box._width(), box._den))

    return box_center(box), IterationTrace(tuple(boxes), tuple(widths), reason)


def orbit_center_fixed_point(group: HasImages, x0: SupPoint) -> SupPoint:
    """Fixed point as the relative center of the orbit of x0.

    The smallest enclosing ball of each fiber is unique and isometry
    equivariant, so the center is group-fixed up to numerical noise;
    callers judge the quality via `fixed_point_residual`.
    """
    return urns_center(orbit(group, x0))
