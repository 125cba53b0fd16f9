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

Systems of two or more rows are solved by `_umath_linalg.solve1`, the
LAPACK gufunc `np.linalg.solve` dispatches to for a 1-D right-hand side,
under the same floating-point state `np.linalg.solve` sets (entered once
per `seb_center` call).  The floats are those of `np.linalg.solve`; what
is skipped is its per-call wrapper, which on these 2 x 2 to 5 x 5
systems costs several times the solve itself.  solve1 is called without
a signature: a float64 Gram and right-hand side resolve to its `dd->d`
loop, the one `np.linalg.solve` names, without the signature keyword's
per-call parsing.  An exactly singular Gram raises LinAlgError and takes
the least-squares fallback.

The rest of a call's set-up is kept small too.  Non-finite points and
the coordinate spread are found from the coordinate extremes
(`np.maximum.reduce`, `np.minimum.reduce`, NaN and inf propagating) and
their differences as Python floats, which overflow to inf with no
warning, so no error-state context is entered for the checks.  Outside
a spread of [2^-100, 2^100], where squared differences would underflow
or overflow, the kernel runs on the points times 2^-e (e from
`math.frexp`) and the center is scaled back: a power of two scales
every kernel operation exactly wherever nothing underflows.  Where
2^-e would carry a coordinate past 2^1020 (the spread is below 2^-1020
times the largest |coordinate|, which needs a coordinate above 2^920),
the points are first translated by the first point q, so no translated
coordinate exceeds the spread, and the center comes back as
ldexp(c, e) + q.  Only such inputs are translated, so every other input
keeps its floats.  On an axis whose coordinates lie within a factor 2 of
q's, every difference x - q is exact (Sterbenz); elsewhere it rounds
once, by at most half an ulp of |x - q| <= spread, as the final + q
does.  Before the translation e was clamped instead, which left the
scaled squares of such a spread to underflow: the ball of (1e300, 0)
and (1e300, 1e-200) had radius 1e-200, twice the optimum.  The
support stack comes from a small per-size pool (`_POOLS`, depths up to
`_POOLED_DEPTH`): a call pops one, or builds one if the pool is empty,
and appends it when done, so concurrent calls never share a stack.  A
reused stack holds an earlier call's rows and Gram entries, but a push
at depth s reads only r_0, rows 0..s-2 and the Gram block of those rows,
which the pushes of its own call's support chain wrote.

Points are carried as tuples of Python floats; profiling showed float
arithmetic beats small-ndarray arithmetic by a wide margin at these sizes.
The arithmetic itself is generated code (`_kernel`), specialised to the
dimension k and the support depth s and compiled on first use, as
`dataclasses` builds `__init__`: for depth s, `push` is straight-line
code over named coordinates, and `welzl` is the loop with its inside test
written out.  Generated code keeps one float order, so every float is the
same on every supported Python and for every k:
- each sum is written out as `0.0 + t_0 + t_1 + ...`, evaluated left to
  right (builtin `sum` compensates float sums from Python 3.12 on), and a
  sum of more than `_CHUNK` terms continues in the next statement from
  its partial total, which changes no operation and keeps the compiler's
  recursion shallow;
- a Gram entry is `2.0 * (b . a)`, a squared distance sums `(x - y) ** 2`,
  and a center coordinate is `r_0 + (0.0 + lambda_0 a_0 + ...)`;
- a one-row system with a positive finite Gram entry g is solved by the
  one division `aa / g` that a 1 x 1 LAPACK solve performs.
The sources are registered in `linecache` under `<supfix.seb kernel k=.
s=.>`, so tracebacks, profiles and `inspect.getsource` show their lines.

A point is inside the current ball when its squared distance from the
center, the written-out sum of squares, is at most limit = rad2 (1 + 1e-13).
`welzl` takes that exact test on every point of the range in turn.

A point outside the ball of points[:j] is pushed on the support and the
ball of points[:j] is solved again with it; for j = 0 that ball is the
circumball `push` returns, so no deeper call is made.  Every
`seb_center` call starts that way, from the empty ball.

Points are visited in the order of a permutation from a fixed-seed
generator, so results are deterministic for a given input and do not
depend on the recursion limit.

The kernel commutes with negation: on -P every difference, product and
`** 2` of round-to-nearest arithmetic is the negation or the copy of the
one on P, so the dedup, the visit order, every inside test and every
Gram system are the same, and `seb_center(-P)` is -`seb_center(P)` with
the same radius wherever the center has no zero coordinate (a zero
coordinate is 0.0 on both sides, or a copied input zero).
`centers.urns_center` relies on this to take a mirrored fiber's center
from its partner, so an edit here must keep it; `tests/test_seb.py`
checks it.  The squares stay `** 2`: `x * x` differs from it for some
floats.
"""

from __future__ import annotations

import linecache
import math
import weakref
from functools import lru_cache
from operator import sub
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import EmptyDomainError

_SHUFFLE_SEED = 0x5EB
_CHUNK = 64  # terms per statement of a generated sum
_POOLED_DEPTH = 16  # supports of at most this many rows are kept for reuse
_SPREAD_WINDOW = (2.0 ** -100, 2.0 ** 100)  # coordinate spreads solved unscaled


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _solve_errstate() -> np.errstate:
    """The floating-point state np.linalg.solve sets around its gufunc: an
    invalid flag (LAPACK's report of an exactly singular matrix) raises
    LinAlgError, and the other flags are ignored."""
    return np.errstate(call=_raise_singular, invalid="call",
                       over="ignore", divide="ignore", under="ignore")


@lru_cache(maxsize=256)
def _visit_order(n: int) -> tuple[int, ...]:
    return tuple(np.random.default_rng(_SHUFFLE_SEED).permutation(n).tolist())


class _Support:
    """The support set as a stack of up to d + 1 points: r0 = r_0,
    rows[i] = r_{i+1} - r_0, and the Gram system 2 (a_i . a_j) lambda_j =
    a_i . a_i of the first s rows in gram[:s, :s] and rhs[:s] (the views
    grams[s] and rhss[s]).  Pushing point s writes at index s - 1 only,
    through the memoryviews gram_mv and rhs_mv, so the rows and Gram block
    of a shallower support stay intact."""

    def __init__(self, d: int):
        self.r0: tuple = ()
        self.rows: list = [None] * d
        self.gram = np.empty((d, d))
        self.rhs = np.empty(d)
        self.gram_mv = memoryview(self.gram)
        self.rhs_mv = memoryview(self.rhs)
        self.grams = [self.gram[:s, :s] for s in range(d + 1)]
        self.rhss = [self.rhs[:s] for s in range(d + 1)]


# _POOLS[d]: idle supports of d rows.  A call pops one (or builds one) and
# appends it when done, so concurrent calls never share a support.
_POOLS: list[list[_Support]] = [[] for _ in range(_POOLED_DEPTH + 1)]


class _Kernel(NamedTuple):
    push: Callable  # (sup, p) -> (center, rad2) with p as support point s
    welzl: Callable  # (points, n, sup, center, rad2) -> (center, rad2)


_TEMPLATE = '''\
def push(sup, p):
    """Make p support point {s} and return the circumball of support
    points 0..{s} (affinely independent input assumed) as (center,
    squared radius)."""
    {push_body}


def welzl(points, n, sup, center, rad2):
    """Smallest ball enclosing points[:n] with the first {s} support points
    on its boundary; (center, rad2) is the circumball of those points."""
    {c} = center
    i = 0
    while i < n:
        limit = rad2 * (1.0 + 1e-13)
        for j in range(i, n):
            {p} = points[j]
            {inside_test}
                break
        else:
            return center, rad2
        {descend}
        {c} = center
        i = j + 1
    return center, rad2
'''


def _sum(first: str, terms: list[str]) -> tuple[list[str], str]:
    """(statements, expression) for first + terms[0] + terms[1] + ...,
    summed left to right; past _CHUNK terms the partial total t is carried
    from statement to statement."""
    if len(terms) <= _CHUNK:
        return [], " + ".join([first, *terms])
    lines = []
    for at in range(0, len(terms), _CHUNK):
        lines.append("t = " + " + ".join([first, *terms[at:at + _CHUNK]]))
        first = "t"
    return lines, "t"


def _names(prefix: str, count: int) -> str:
    """'x0, x1, x2' for an unpacking target or a tuple display; 'x0,' if count is 1."""
    return ", ".join(f"{prefix}{i}" for i in range(count)) + ("," if count == 1 else "")


def _push_body(k: int, s: int) -> list[str]:
    if s == 0:
        return ["sup.r0 = p", "return p, 0.0"]
    m = s - 1
    row = [[f"a{j}_{i}" for i in range(k)] for j in range(s)]
    a = row[m]
    lines = [f"{_names('r0_', k)} = sup.r0", f"{_names('p', k)} = p"]
    lines += [f"{a[i]} = p{i} - r0_{i}" for i in range(k)]
    lines += ["rows = sup.rows", f"rows[{m}] = ({_names(f'a{m}_', k)})"]
    lines += [f"{_names(f'a{j}_', k)} = rows[{j}]" for j in range(m)]
    lines.append("gram = sup.gram_mv")
    for j in range(m):
        pre, dot = _sum("0.0", [f"{b} * {x}" for b, x in zip(row[j], a)])
        lines += [*pre, f"gram[{j}, {m}] = gram[{m}, {j}] = 2.0 * ({dot})"]
    pre, aa = _sum("0.0", [f"{x} * {x}" for x in a])
    lines += [*pre, f"aa = {aa}", f"gram[{m}, {m}] = g = 2.0 * aa", f"sup.rhs_mv[{m}] = aa"]
    lam = _names("l", s)
    solve = ["try:  # the LAPACK gufunc np.linalg.solve calls; see _solve_errstate",
             f"    {lam} = _umath_linalg.solve1(sup.grams[{s}], sup.rhss[{s}]).tolist()",
             "except np.linalg.LinAlgError:",
             f"    {lam} = np.linalg.lstsq(sup.grams[{s}], sup.rhss[{s}], rcond=None)[0].tolist()"]
    if s == 1:
        solve = ["if 0.0 < g < inf:",
                 "    l0 = aa / g  # the one division a 1 x 1 LAPACK solve performs",
                 "else:", *["    " + line for line in solve]]
    lines += solve
    for i in range(k):
        pre, acc = _sum("0.0", [f"l{j} * {row[j][i]}" for j in range(s)])
        lines += [*pre, f"c{i} = r0_{i} + ({acc})"]
    pre, rad2 = _sum("0.0", [f"(c{i} - r0_{i}) ** 2" for i in range(k)])
    return [*lines, *pre, f"return ({_names('c', k)}), {rad2}"]


def _source(k: int, s: int) -> str:
    pre, d2 = _sum("0.0", [f"(p{i} - c{i}) ** 2" for i in range(k)])
    descend = ["center, rad2 = push(sup, points[j])"]
    if s < k:  # k + 1 support points fix the ball: it is their circumball
        descend += ["if j:  # over no points, the next depth would return push's ball",
                    f"    center, rad2 = _kernel({k}, {s + 1}).welzl(points, j, sup, center, rad2)"]
    return _TEMPLATE.format(
        s=s, c=_names("c", k), p=_names("p", k),
        descend="\n        ".join(descend),
        push_body="\n    ".join(_push_body(k, s)),
        inside_test="\n            ".join([*pre, f"if not {d2} <= limit:"]))


def _forget_source(filename: str, entry: tuple) -> None:
    if linecache.cache.get(filename) is entry:
        del linecache.cache[filename]


@lru_cache(maxsize=128)
def _kernel(k: int, s: int) -> _Kernel:
    """The generated push and welzl of dimension k and support depth s."""
    source = _source(k, s)
    filename = f"<supfix.seb kernel k={k} s={s}>"
    namespace = {"__name__": __name__, "_kernel": _kernel, "inf": math.inf, "np": np,
                 "_umath_linalg": _umath_linalg}
    exec(compile(source, filename, "exec"), namespace)
    entry = (len(source), None, source.splitlines(True), filename)
    linecache.cache[filename] = entry
    kernel = _Kernel(namespace["push"], namespace["welzl"])
    weakref.finalize(kernel.welzl, _forget_source, filename, entry)
    return kernel


def seb_center(points: Sequence[Sequence[float]] | np.ndarray) -> tuple[np.ndarray, float]:
    """Center and radius of the smallest Euclidean ball enclosing the points.

    The returned radius is recomputed as the exact (float) maximum distance
    from the center, so `all(dist(p, c) <= r)` holds without slack.
    Non-finite coordinates raise ValueError.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.size == 0:
        raise EmptyDomainError("smallest enclosing ball of no points")
    _, k = arr.shape
    # NaN and inf reach the coordinate extremes (see the module docstring)
    hi, lo = np.maximum.reduce(arr).tolist(), np.minimum.reduce(arr).tolist()
    if not all(map(math.isfinite, hi + lo)):
        raise ValueError("enclosing-ball points must be finite")
    spread, e, shift = max(map(sub, hi, lo)), 0, None
    if spread and not _SPREAD_WINDOW[0] <= spread <= _SPREAD_WINDOW[1]:
        top = math.frexp(max(map(abs, hi + lo)))[1]  # every |coordinate| < 2^top
        e = math.frexp(spread)[1] if spread < math.inf else top
        if e < top - 1020:  # 2^-e would overflow a coordinate: translate first
            shift = arr[0]
    uniq = list(dict.fromkeys(map(tuple, arr.tolist())))
    if len(uniq) == 1:
        return np.array(uniq[0]), 0.0
    if e:
        moved = arr if shift is None else arr - shift
        pts = list(dict.fromkeys(map(tuple, np.ldexp(moved, -e).tolist())))
    else:
        pts = uniq
    shuffled = [pts[i] for i in _visit_order(len(pts))]
    # n distinct points are at most n supports; start from the empty ball,
    # which holds no point, not even its center
    depth = min(k, len(pts) - 1)
    pool = _POOLS[depth] if depth < len(_POOLS) else []
    try:
        sup = pool.pop()
    except IndexError:
        sup = _Support(depth)
    with _solve_errstate():
        center, _ = _kernel(k, 0).welzl(shuffled, len(shuffled), sup, shuffled[0], -math.inf)
    pool.append(sup)
    if e:
        center = np.ldexp(center, e)
        center = (center if shift is None else center + shift).tolist()
    radius = max(math.dist(row, center) for row in uniq)
    return np.array(center), radius
