"""Smallest enclosing Euclidean ball in arbitrary (small) dimension.

Welzl's algorithm (Welzl 1991) in its loop form, with an explicit support
set.  The ball of points[:n] with the support set R on its boundary starts
as the ball of R alone; each point p_i (i < n) that lies outside the
current ball is put on the boundary, and the ball is solved again on
points[:i] with R + [p_i].  Nesting grows only with the support set, so
the depth is at most k + 2 whatever the number of points.

The ball of a support set r_0, ..., r_s (s <= k) is the circumball of
those points: its center is r_0 + sum_i lambda_i a_i, where a_i = r_i - r_0
and 2 (a_i . a_j) lambda_j = a_i . a_i is an s x s Gram system.  The Gram
system grows with the support instead of being rebuilt: putting p on the
boundary appends the row a = p - r_0, one Gram column 2 (b . a) per
earlier row b, the diagonal 2 (a . a) and the right-hand side a . a.  The
support is a stack shared by the whole recursion (`_Support`), because a
nested call only writes at and beyond its own depth.

Points are carried as tuples of Python floats; profiling showed float
arithmetic beats small-ndarray arithmetic by a wide margin at these sizes.
Sums run left to right in explicit loops (builtin `sum` compensates float
sums from Python 3.12 on), so every float is the same on every supported
Python.

A point is inside the current ball when its squared distance from the
center is at most limit = rad2 (1 + 1e-13).  The test runs in two stages.
`math.dist` clears, in C, every point within sqrt(limit) (1 - 1e-9) of the
center: it is within an ulp of the exact distance, and the explicit sum of
squares within about (k + 1) ulps of it, so such a point passes the exact
test too (for fewer than 10^6 coordinates, and for limits above the
smallest normal float, where underflow cannot reach the margin).  Every
other point takes the exact test `_dist2(p, center) <= limit`, so each
point lands on the same side as with the exact test alone.

Points are visited in the order of a permutation from a fixed-seed
generator, so results are deterministic for a given input and do not
depend on the recursion limit.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import compress, repeat
from typing import Sequence

import numpy as np

from .errors import EmptyDomainError

_SHUFFLE_SEED = 0x5EB
_MIN_NORMAL = sys.float_info.min


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


class _Support:
    """The support set as a stack: r0 = r_0, rows[i] = r_{i+1} - r_0, and
    the Gram system 2 (a_i . a_j) lambda_j = a_i . a_i of the first s rows
    in gram[:s, :s] and rhs[:s].  Pushing point s writes at index s - 1
    only, so the rows and Gram block of a shallower support stay intact."""

    def __init__(self, k: int):
        self.r0: tuple = ()
        self.rows: list = [None] * k
        self.gram = np.empty((k, k))
        self.rhs = np.empty(k)

    def push(self, s: int, p: tuple) -> tuple[tuple, float]:
        """Make p support point s; return the circumball of points 0..s
        (affinely independent input assumed) as (center, squared radius)."""
        if s == 0:
            self.r0 = p
            return p, 0.0
        r0, rows, gram = self.r0, self.rows, self.gram
        m = s - 1
        a = [x - y for x, y in zip(p, r0)]
        rows[m] = a
        for j in range(m):
            gram[j, m] = gram[m, j] = 2.0 * _dot(rows[j], a)
        aa = _dot(a, a)
        gram[m, m] = g = 2.0 * aa
        self.rhs[m] = aa
        if m == 0 and 0.0 < g < math.inf:
            lam = [aa / g]  # the one division a 1 x 1 LAPACK solve performs
        else:
            g_s, rhs_s = gram[:s, :s], self.rhs[:s]
            try:
                lam = np.linalg.solve(g_s, rhs_s).tolist()
            except np.linalg.LinAlgError:
                lam = np.linalg.lstsq(g_s, rhs_s, rcond=None)[0].tolist()
        acc = [0.0] * len(r0)
        for l, a in zip(lam, rows):
            acc = [c + l * x for c, x in zip(acc, a)]
        center = tuple([x0 + c for x0, c in zip(r0, acc)])
        return center, _dist2(center, r0)


def _welzl(points: list[tuple], n: int, sup: _Support, s: int,
           center: tuple, rad2: float) -> tuple[tuple, float]:
    """Smallest ball enclosing points[:n] with the first s support points on
    its boundary; (center, rad2) is the circumball of those s points."""
    if s == len(sup.rows) + 1:
        return center, rad2
    i = 0
    while i < n:
        limit = rad2 * (1.0 + 1e-13)
        if limit >= _MIN_NORMAL:
            cut = math.sqrt(limit) * (1.0 - 1e-9)
            dists = map(math.dist, points[i:n], repeat(center))
            candidates = compress(range(i, n), map(cut.__lt__, dists))
        else:  # empty, point-sized or NaN ball: every point takes the exact test
            candidates = range(i, n)
        for j in candidates:
            if not _dist2(points[j], center) <= limit:
                break
        else:
            return center, rad2
        center, rad2 = _welzl(points, j, sup, s + 1, *sup.push(s, points[j]))
        i = j + 1
    return center, rad2


def seb_center(points: Sequence[Sequence[float]] | np.ndarray) -> tuple[np.ndarray, float]:
    """Center and radius of the smallest Euclidean ball enclosing the points.

    The returned radius is recomputed as the exact (float) maximum distance
    from the center, so `all(dist(p, c) <= r)` holds without slack.
    Non-finite coordinates raise ValueError.  Points so far apart that the
    Gram entries 2 (r_i - r_0) . (r_j - r_0) could overflow a float raise
    OverflowError.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.size == 0:
        raise EmptyDomainError("smallest enclosing ball of no points")
    _, k = arr.shape
    with np.errstate(over="ignore", invalid="ignore"):  # the checks below judge it
        spread = np.ptp(arr, axis=0).max()  # NaN or inf when a coordinate is, or on overflow
    if not math.isfinite(spread) and not np.isfinite(arr).all():
        raise ValueError("enclosing-ball points must be finite")
    if spread > math.sqrt(sys.float_info.max / (4 * k)):
        raise OverflowError("points too far apart for their squared distances to stay finite")
    uniq = list(dict.fromkeys(map(tuple, arr.tolist())))
    if len(uniq) == 1:
        return np.array(uniq[0]), 0.0
    shuffled = [uniq[i] for i in _visit_order(len(uniq))]
    # start from the empty ball, which holds no point, not even its center
    center, _ = _welzl(shuffled, len(shuffled), _Support(k), 0, shuffled[0], -math.inf)
    radius = max(math.dist(row, center) for row in uniq)
    return np.array(center), radius
