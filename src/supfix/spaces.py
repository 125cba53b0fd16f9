"""Points and clouds for the two sup-norm model spaces.

The working spaces are finite models: real l-infinity^n (every point a vector
of n reals, distance = max coordinate difference) and l-infinity(Gamma, H)
with a finite index set Gamma of size m and Euclidean fibers H = R^k
(distance = max over Gamma of the Euclidean fiber distance).  Setting k = 1
recovers the box space, so a single point type covers both.

Every real sup-distance in the package, here and in `centers`, `iterate`
and `instances`, reduces a difference stack through the one helper
`_fiber_norms`, so equal rows give equal floats wherever they are taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EmptyDomainError, SpaceMismatchError

# Jung-type constant certifying uniform relative normal structure for
# Euclidean fibers (the box space has 1/2).
FIBER_URNS_CONSTANT = math.sqrt(3.0) / 2.0
# Elements per block of a difference stack, so the temporaries of a diameter
# or a radius stay near half a megabyte whatever the point and sample counts.
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class SupPoint:
    """A point of l-infinity(Gamma, R^k): an (m, k) array of fiber vectors.

    The fibers are a read-only copy of the given array, checked by
    `_checked_stack` as a stack of one point; an (m,) array is a
    box-space point.
    """

    fibers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fibers", _checked_stack([self.fibers])[0])

    @property
    def m(self) -> int:
        return self.fibers.shape[0]

    @property
    def k(self) -> int:
        return self.fibers.shape[1]

    @classmethod
    def of(cls, coords: Sequence[float]) -> "SupPoint":
        """Box-space point from a plain coordinate sequence."""
        return cls(np.asarray(coords, dtype=float)[:, np.newaxis])


def _checked_stack(stacked) -> np.ndarray:
    """An (N, m, k) stack of points as one read-only contiguous copy,
    validated once for all rows: the one validity check of points and
    clouds.  An (N, m) stack holds (m, 1) points; N may be 0.
    """
    try:
        arr = np.array(stacked, dtype=float, order="C")
    except ValueError as exc:  # e.g. points of different shapes
        raise SpaceMismatchError(f"points do not form one (N, m, k) array: {exc}") from exc
    if arr.ndim == 2:
        arr = arr[:, :, np.newaxis]
    if arr.ndim != 3 or 0 in arr.shape[1:]:
        raise SpaceMismatchError(f"fibers must be a nonempty (m, k) array, got shape {arr.shape[1:]}")
    if not np.isfinite(arr).all():
        raise ValueError("fiber coordinates must be finite")
    arr.setflags(write=False)
    return arr


def _fiber_norms(diff: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis of a float difference stack that
    the caller gives up: diff is squared in place, summed over its
    contiguous last axis and the sums square-rooted in place.  These are
    the ufunc calls `np.sum(diff * diff, axis=-1)` and
    `np.linalg.norm(diff, axis=-1)` make on real data, so each norm is the
    same float for every k (numpy sums a row of fewer than 8 entries in
    order, longer rows pairwise, and sees the same row either way)."""
    np.multiply(diff, diff, out=diff)
    norms = np.add.reduce(diff, axis=-1)
    return np.sqrt(norms, out=norms)


def sup_distance(x: SupPoint, y: SupPoint) -> float:
    """Sup-norm distance: max over Gamma of the Euclidean fiber distance."""
    if x.fibers.shape != y.fibers.shape:
        raise SpaceMismatchError(
            f"points live in different spaces: {x.fibers.shape} vs {y.fibers.shape}"
        )
    return float(_fiber_norms(x.fibers - y.fibers).max())


@dataclass(frozen=True)
class PointCloud:
    """A finite set of points of a common space, e.g. a group orbit.

    The points are one read-only (N, m, k) array, a copy of the given
    stack checked once as a whole; an (N, m) stack holds box-space points.
    The diameter is computed on first use and kept: the largest fiber
    distance over the distinct pairs i < j, gathered in blocks of about
    `_BLOCK_ELEMENTS` differences, and 0.0 for a single point.
    """

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _checked_stack(self.points))

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def _diameter(self) -> float:
        pts = self.points
        n, m, k = pts.shape
        index = np.arange(n)
        rows, cols = np.nonzero(index[:, np.newaxis] < index)  # the pairs i < j
        step = max(1, _BLOCK_ELEMENTS // (m * k))
        worst = 0.0
        for s in range(0, len(rows), step):
            diff = pts.take(rows[s:s + step], axis=0)
            diff -= pts.take(cols[s:s + step], axis=0)
            worst = max(worst, float(_fiber_norms(diff).max()))
        return worst


def cloud_diameter(cloud: PointCloud) -> float:
    """Largest pairwise sup-distance within the cloud, computed once per cloud."""
    if len(cloud) == 0:
        raise EmptyDomainError("diameter of an empty cloud is undefined")
    return cloud._diameter
