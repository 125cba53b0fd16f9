"""Smallest enclosing Euclidean ball in arbitrary (small) dimension.

Welzl's algorithm (Welzl 1991) in its loop form, with an explicit support
set.  The ball of points[:n] with the support set R on its boundary starts
as the ball of R alone; each point p_i (i < n) that lies outside the
current ball is put on the boundary, and the ball is solved again on
points[:i] with R + [p_i].  Nesting grows only with the support set, so
the depth is at most k + 2 whatever the number of points.

The ball of a support set of size s <= k + 1 is the circumball of those
points: its center is the affine combination solving 2 (r_i - r_0) .
(c - r_0) = |r_i - r_0|^2, a (s-1) x (s-1) Gram system.  Points are
carried as tuples of Python floats; profiling showed float arithmetic
beats small-ndarray arithmetic by a wide margin at these sizes.  Sums run
left to right in explicit loops (builtin `sum` compensates float sums from
Python 3.12 on), so every float is the same on every supported Python.

Points are visited in the order of a permutation from a fixed-seed
generator, so results are deterministic for a given input and do not
depend on the recursion limit.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import EmptyDomainError

_SHUFFLE_SEED = 0x5EB


@lru_cache(maxsize=256)
def _visit_order(n: int) -> tuple[int, ...]:
    return tuple(np.random.default_rng(_SHUFFLE_SEED).permutation(n).tolist())


def _dot(a, b) -> float:
    acc = 0.0
    for u, v in zip(a, b):
        acc += u * v
    return acc


def _dist2(a, b) -> float:
    acc = 0.0
    for x, y in zip(a, b):
        acc += (x - y) ** 2
    return acc


def _circumball(support: list[tuple]) -> tuple[tuple, float]:
    """Center and squared radius of the unique smallest ball with the
    support points on its boundary (affinely independent input assumed)."""
    r0 = support[0]
    if len(support) == 1:
        return r0, 0.0
    rows = [[x - y for x, y in zip(p, r0)] for p in support[1:]]
    G = [[2.0 * _dot(a, b) for b in rows] for a in rows]
    rhs = [_dot(a, a) for a in rows]
    if len(rows) == 1 and 0.0 < G[0][0] < math.inf:
        lam = [rhs[0] / G[0][0]]  # the one division a 1 x 1 LAPACK solve performs
    else:
        try:
            lam = np.linalg.solve(G, rhs).tolist()
        except np.linalg.LinAlgError:
            lam = np.linalg.lstsq(G, rhs, rcond=None)[0].tolist()
    center = []
    for i, x0 in enumerate(r0):
        acc = 0.0
        for l, a in zip(lam, rows):
            acc += l * a[i]
        center.append(x0 + acc)
    center = tuple(center)
    return center, _dist2(center, r0)


def _welzl(points: list[tuple], n: int, support: list[tuple], k: int) -> tuple[tuple, float]:
    """Smallest ball enclosing points[:n] with the support points on its boundary."""
    center, rad2 = _circumball(support) if support else (None, -1.0)
    if len(support) == k + 1:
        return center, rad2
    limit = rad2 * (1.0 + 1e-13)
    for i in range(n):
        p = points[i]
        if center is None or not _dist2(p, center) <= limit:
            center, rad2 = _welzl(points, i, support + [p], k)
            limit = rad2 * (1.0 + 1e-13)
    return center, rad2


def seb_center(points: Sequence[Sequence[float]] | np.ndarray) -> tuple[np.ndarray, float]:
    """Center and radius of the smallest Euclidean ball enclosing the points.

    The returned radius is recomputed as the exact (float) maximum distance
    from the center, so `all(dist(p, c) <= r)` holds without slack.
    Points so far apart that the Gram entries 2 (r_i - r_0) . (r_j - r_0)
    could overflow a float raise OverflowError.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.size == 0:
        raise EmptyDomainError("smallest enclosing ball of no points")
    _, k = arr.shape
    if np.ptp(arr, axis=0).max() > math.sqrt(sys.float_info.max / (4 * k)):
        raise OverflowError("points too far apart for their squared distances to stay finite")
    uniq = list(dict.fromkeys(map(tuple, arr.tolist())))
    if len(uniq) == 1:
        return np.array(uniq[0]), 0.0
    shuffled = [uniq[i] for i in _visit_order(len(uniq))]
    center, _ = _welzl(shuffled, len(shuffled), [], k)
    radius = max(math.dist(row, center) for row in uniq)
    return np.array(center), radius
