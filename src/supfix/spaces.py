"""Points and clouds for the two sup-norm model spaces.

The working spaces are finite models: real l-infinity^n (every point a vector
of n reals, distance = max coordinate difference) and l-infinity(Gamma, H)
with a finite index set Gamma of size m and Euclidean fibers H = R^k
(distance = max over Gamma of the Euclidean fiber distance).  Setting k = 1
recovers the box space, so a single point type covers both.

Every real sup-distance in the package, here and in `centers`, `iterate`
and `instances`, is taken by the one helper `_fiber_distances`, so equal
rows give equal floats wherever they are taken.  It sums a fiber of
k < 8 squares as k - 1 column adds, (s_0 + s_1) + s_2 + ..., the order
numpy's reduce uses for rows that short, at one ufunc call per column:
numpy's reduce over a short last axis pays one inner-loop call per row.
A fiber of 8 or more squares goes through `np.add.reduce`, whose
pairwise tree defines those floats.  Points are finite, but
a difference near 1e308 can overflow, and so can the square of any
difference above about 1.3e154 (the square root of the largest float):
such a distance reads inf, with no warning.

`SupPoint(...)` and `PointCloud(...)` copy and check what they are given
(`_checked_stack`: shape, finiteness, one contiguous float array).  The
package also builds points whose arrays are right by construction, on
every case: a drawn grid point, a box center, an enclosing-ball center,
an orbit whose images `GroupSpec.images` has just checked, the zero point
of a witness model.  Those are wrapped by the private `_trusted`
classmethods, which only mark the array read-only: each caller hands over
a fresh, finite, C-contiguous float64 array of the right rank that
nothing else holds, which is what the copy and the checks would have
made.  Every value a caller outside the package builds goes through the
checking constructors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyDomainError, SpaceMismatchError

# Jung-type constant certifying uniform relative normal structure for
# Euclidean fibers (the box space has 1/2).
FIBER_URNS_CONSTANT = math.sqrt(3.0) / 2.0
# Bytes per temporary of every blocked all-pairs reduction: the diameter
# here, the radii of `centers`, the translation law of `cocycles` and the
# homomorphism residual of `witnesses`.
_BLOCK_BYTES = 384 * 1024
# The shortest row np.add.reduce sums pairwise rather than in order.
_PAIRWISE_FROM = 8


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
    def _trusted(cls, fibers: np.ndarray) -> "SupPoint":
        """Wrap an (m, k) array that is valid by construction, skipping
        the copy and the checks (see the module docstring)."""
        return _wrap(cls, fibers=fibers)


def _wrap(cls, **arrays: np.ndarray):
    """An instance of the frozen dataclass cls holding the given arrays,
    made read-only and taken as they are, without __post_init__."""
    for arr in arrays.values():
        arr.setflags(write=False)
    obj = object.__new__(cls)
    obj.__dict__.update(arrays)  # frozen: no __setattr__
    return obj


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


def _fiber_distances(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Euclidean norms over the last axis of the float stack a - b, which
    is written to `out` (an array the caller gives up, a itself allowed)
    or to a new array, squared in place, summed over its last axis (see
    the module docstring), and the sums square-rooted in place.  These
    are the floats of `np.sum(diff * diff, axis=-1)` and
    `np.linalg.norm(diff, axis=-1)` on real data, for every k.  An
    overflow gives inf, not a warning."""
    with np.errstate(over="ignore"):
        diff = np.subtract(a, b, out=out)
        sq = np.multiply(diff, diff, out=diff)
        if sq.shape[-1] < _PAIRWISE_FROM:
            norms = _fold_columns(np.add, sq)
        else:
            norms = np.add.reduce(sq, axis=-1)
        return np.sqrt(norms, out=norms)


def _fold_columns(ufunc: np.ufunc, arr: np.ndarray) -> np.ndarray:
    """ufunc folded over the last axis of arr from the left,
    f(f(a_0, a_1), a_2) ..., as one ufunc call per column; a single column
    is returned as a view of arr."""
    if arr.shape[-1] == 1:
        return arr[..., 0]
    out = ufunc(arr[..., 0], arr[..., 1])
    for j in range(2, arr.shape[-1]):
        ufunc(out, arr[..., j], out=out)
    return out


def sup_distance(x: SupPoint, y: SupPoint) -> float:
    """Sup-norm distance: max over Gamma of the Euclidean fiber distance."""
    if x.fibers.shape != y.fibers.shape:
        raise SpaceMismatchError(
            f"points live in different spaces: {x.fibers.shape} vs {y.fibers.shape}"
        )
    return float(_fiber_distances(x.fibers, y.fibers).max())


@dataclass(frozen=True)
class PointCloud:
    """A finite set of points of a common space, e.g. a group orbit.

    The points are one read-only (N, m, k) array, a copy of the given
    stack checked once as a whole; an (N, m) stack holds box-space points.
    The diameter is computed on first use and kept: the largest fiber
    distance over the distinct pairs i < j, gathered in blocks of pairs
    whose differences fill about `_BLOCK_BYTES`, and 0.0 for a single point.
    """

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _checked_stack(self.points))

    @classmethod
    def _trusted(cls, points: np.ndarray) -> "PointCloud":
        """Wrap an (N, m, k) array that is valid by construction, skipping
        the copy and the checks (see the module docstring)."""
        return _wrap(cls, points=points)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def _diameter(self) -> float:
        pts = self.points
        n, m, k = pts.shape
        index = np.arange(n)
        rows, cols = np.nonzero(index[:, np.newaxis] < index)  # the pairs i < j
        step = max(1, _BLOCK_BYTES // (m * k * pts.itemsize))
        worst = 0.0
        for s in range(0, len(rows), step):
            diff = pts.take(rows[s:s + step], axis=0)
            norms = _fiber_distances(diff, pts.take(cols[s:s + step], axis=0), out=diff)
            worst = max(worst, float(norms.max()))
        return worst


def cloud_diameter(cloud: PointCloud) -> float:
    """Largest pairwise sup-distance within the cloud, computed once per cloud."""
    if len(cloud) == 0:
        raise EmptyDomainError("diameter of an empty cloud is undefined")
    return cloud._diameter
