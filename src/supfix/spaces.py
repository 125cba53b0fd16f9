"""Points and clouds for the two sup-norm model spaces.

The working spaces are finite models: real l-infinity^n (every point a vector
of n reals, distance = max coordinate difference) and l-infinity(Gamma, H)
with a finite index set Gamma of size m and Euclidean fibers H = R^k
(distance = max over Gamma of the Euclidean fiber distance).  Setting k = 1
recovers the box space, so a single point type covers both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyDomainError, SpaceMismatchError

# Jung-type constant certifying uniform relative normal structure for
# Euclidean fibers (the box space has 1/2).
FIBER_URNS_CONSTANT = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class SupPoint:
    """A point of l-infinity(Gamma, R^k): an (m, k) array of fiber vectors."""

    fibers: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.fibers, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, np.newaxis]
        if arr.ndim != 2 or arr.size == 0:
            raise SpaceMismatchError(f"fibers must be a nonempty (m, k) array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("fiber coordinates must be finite")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "fibers", arr)

    @property
    def m(self) -> int:
        return self.fibers.shape[0]

    @property
    def k(self) -> int:
        return self.fibers.shape[1]

    def flat(self) -> np.ndarray:
        """The point as a vector of length n = m for k = 1 (box space view)."""
        if self.k != 1:
            raise SpaceMismatchError(f"flat() requires k=1 fibers, got k={self.k}")
        return self.fibers[:, 0]

    @classmethod
    def of(cls, coords: Sequence[float]) -> "SupPoint":
        """Box-space point from a plain coordinate sequence."""
        return cls(np.asarray(coords, dtype=float)[:, np.newaxis])


def _checked_stack(stacked) -> np.ndarray:
    """An (N, m, k) stack of points as one read-only contiguous copy,
    validated once for all rows.

    Same checks and exception types as `SupPoint` on each row (an (N, m)
    stack holds (m, 1) points); an empty stack is returned unchecked.
    """
    arr = np.array(stacked, dtype=float, order="C")
    if arr.ndim == 2:
        arr = arr[:, :, np.newaxis]
    if arr.ndim and arr.shape[0] == 0:
        return arr
    if arr.ndim != 3 or arr.size == 0:
        raise SpaceMismatchError(f"fibers must be a nonempty (m, k) array, got shape {arr.shape[1:]}")
    if not np.isfinite(arr).all():
        raise ValueError("fiber coordinates must be finite")
    arr.setflags(write=False)
    return arr


def _rows_as_points(arr: np.ndarray) -> tuple[SupPoint, ...]:
    """The rows of a stack from `_checked_stack` as SupPoints sharing them."""
    points = []
    for row in arr:
        point = object.__new__(SupPoint)
        object.__setattr__(point, "fibers", row)
        points.append(point)
    return tuple(points)


def _points_from_stack(stacked) -> tuple[SupPoint, ...]:
    """The rows of an (N, m, k) stack as SupPoints, validated once for all,
    sharing the rows of one read-only contiguous copy."""
    return _rows_as_points(_checked_stack(stacked))


def sup_distance(x: SupPoint, y: SupPoint) -> float:
    """Sup-norm distance: max over Gamma of the Euclidean fiber distance."""
    if x.fibers.shape != y.fibers.shape:
        raise SpaceMismatchError(
            f"points live in different spaces: {x.fibers.shape} vs {y.fibers.shape}"
        )
    diff = x.fibers - y.fibers
    return float(np.max(np.sqrt(np.sum(diff * diff, axis=1))))


@dataclass(frozen=True)
class PointCloud:
    """A finite set of points of a common space, e.g. a group orbit.

    The stacked points and the diameter are computed once, on first use,
    and kept; the kept stack is read-only.
    """

    points: tuple[SupPoint, ...]

    def __post_init__(self):
        pts = tuple(self.points)
        if pts:
            shape = pts[0].fibers.shape
            for p in pts[1:]:
                if p.fibers.shape != shape:
                    raise SpaceMismatchError("cloud mixes points from different spaces")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_iter(cls, points: Iterable[SupPoint]) -> "PointCloud":
        return cls(tuple(points))

    @classmethod
    def from_array(cls, stacked: np.ndarray) -> "PointCloud":
        """Cloud from an (N, m, k) array, whose checked copy is the kept stack."""
        arr = _checked_stack(stacked)
        cloud = cls(_rows_as_points(arr))
        if len(arr):
            cloud.__dict__["_stacked"] = arr  # the points are its rows
        return cloud

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def _stacked(self) -> np.ndarray:
        if not self.points:
            raise EmptyDomainError("empty cloud has no stacked form")
        arr = np.stack([p.fibers for p in self.points])
        arr.setflags(write=False)
        return arr

    def stack(self) -> np.ndarray:
        """All points as one read-only (N, m, k) array."""
        return self._stacked

    @cached_property
    def _diameter(self) -> float:
        pts = self.stack()
        # (N, N, m) matrix of fiber distances, then sup over fibers, max over pairs.
        diff = pts[:, np.newaxis, :, :] - pts[np.newaxis, :, :, :]
        fiber_d = np.sqrt(np.sum(diff * diff, axis=3))
        return float(np.max(np.max(fiber_d, axis=2)))


def cloud_diameter(cloud: PointCloud) -> float:
    """Largest pairwise sup-distance within the cloud, computed once per cloud."""
    if len(cloud) == 0:
        raise EmptyDomainError("diameter of an empty cloud is undefined")
    return cloud._diameter
