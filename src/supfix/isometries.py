"""Surjective affine isometries of the sup-norm model space.

Every map handled here permutes the index set, applies an orthogonal map
in each fiber, and translates:

    (phi x)_g = maps[g] @ x[perm[g]] + trans[g]

A finite group is its elements' arrays stacked along a leading axis
(`GroupSpec`); only the generators of a closed group are single
`FiberPermIsometry` objects.

When every fiber map is a signed permutation matrix, an isometry is a
signed permutation of the flattened m*k coordinates plus a translation,
and every finite float translation is a dyadic rational: its `exact` form
holds the permutation, the signs, and the translation as integer
numerators over one power of two.  A -0.0 translation has the numerator
0, so it reads as +0.0.

`group_closure` closes such generators, and only such generators, by the
breadth-first closure of `groups.closure`: a product is one integer
gather and a duplicate is an equal integer key.  One bound keeps the
integers in int64: cap times the largest generator numerator
(over the generators' common denominator) is at most 2^63 - 1.  A product
the closure makes is a word of at most cap generators, so no numerator of
any element can overflow.  An element's floats are the correctly rounded
values of its exact form; they equal it wherever every numerator is at
most 2^53, as in every group a scenario draws.  Generators whose fiber
maps are not signed permutations (rotations, say), non-finite
translations and generators beyond the bound raise ValueError.

`box_image` reads an isometry's exact form as Python ints, made once per
isometry, and returns the box itself when the box is invariant, so the
descent's invariance checks build no box on the way to a fixed point.

The orthogonality test calls np.einsum with its default optimize=False,
which hands the operands straight to numpy's C einsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .boxes import Box, _reduced, _rescaled, _scaled
from .errors import SpaceMismatchError
from .groups import closure
from .spaces import PointCloud, SupPoint, _wrap

_ORTHO_TOL = 1e-8
_EXACT_NUM = 2**63 - 1  # largest |numerator| of a closed element: int64's
_INT64_SAFE = 2**62  # exact orbit numerators below this stay int64


def _orthogonal(maps: np.ndarray) -> bool:
    """Whether every (k, k) map of the stack is orthogonal to _ORTHO_TOL.

    The test of np.allclose(M^T M, I, atol=_ORTHO_TOL), written out: it
    accepts and rejects the same Gram matrices (NaN and inf entries fail).
    """
    eye = np.eye(maps.shape[-1])
    gram = np.einsum("gij,gil->gjl", maps, maps)
    return bool((np.abs(gram - eye) <= _ORTHO_TOL + 1e-5 * eye).all())


class ExactForm(NamedTuple):
    """x -> sign * x[src] + nums / den on the flattened m*k coordinates,
    with den the least power of two that makes every nums an integer;
    entry q of the image is fiber q // k, row q % k.  A group's form
    stacks its elements' along a leading axis over one common den."""

    src: np.ndarray  # ([n,] m k) int
    sign: np.ndarray  # ([n,] m k) int, +1 or -1
    den: int
    nums: np.ndarray  # ([n,] m k) int64, or Python ints where int64 cannot hold them


@dataclass(frozen=True)
class FiberPermIsometry:
    perm: np.ndarray  # (m,) permutation of range(m)
    maps: np.ndarray  # (m, k, k) orthogonal fiber maps
    trans: np.ndarray  # (m, k)

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=int)
        maps = np.asarray(self.maps, dtype=float)
        trans = np.asarray(self.trans, dtype=float)
        m = perm.shape[0]
        if sorted(perm.tolist()) != list(range(m)):
            raise ValueError("perm is not a permutation")
        if maps.shape != (m, trans.shape[1], trans.shape[1]) or trans.shape[0] != m:
            raise SpaceMismatchError("inconsistent isometry data shapes")
        if not _orthogonal(maps):
            raise ValueError("fiber maps must be orthogonal")
        for name, arr in (("perm", perm), ("maps", maps), ("trans", trans)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def _trusted(cls, perm: np.ndarray, maps: np.ndarray, trans: np.ndarray) -> "FiberPermIsometry":
        """Wrap arrays that are valid by construction, skipping the checks.

        For a checked map given a new finite translation, as `instances`
        conjugates its linear generators by a grid point, and for the
        signed-permutation candidates `instances` draws: a permutation
        from `rng.permutation`, signed-permutation fiber maps and a zero
        translation, all new arrays.
        """
        return _wrap(cls, perm=perm, maps=maps, trans=trans)

    @property
    def m(self) -> int:
        return self.perm.shape[0]

    @property
    def k(self) -> int:
        return self.trans.shape[1]

    @cached_property
    def exact(self) -> ExactForm | None:
        """The exact form, or None when a fiber map is not a signed
        permutation matrix (entries exactly 0 and +-1, one +-1 in every row
        and column) or a translation is not finite."""
        maps, k = self.maps, self.k
        if k == 1:
            src, sign = self.perm, maps.ravel()
        else:
            nonzero = maps != 0.0
            if not ((nonzero.sum(axis=2) == 1).all() and (nonzero.sum(axis=1) == 1).all()):
                return None
            src = self.perm[:, None] * k + nonzero.argmax(axis=2)  # the column of row i's entry
            sign = maps.sum(axis=2)  # that entry: the others are zeros
        if not (np.abs(sign) == 1.0).all():
            return None
        den, nums = _dyadic(self.trans.ravel())
        if nums is None:
            return None
        return ExactForm(src.ravel(), sign.ravel().astype(int), den, nums)

    @cached_property
    def _box_rows(self) -> tuple[int, tuple[tuple[int, int, int], ...]] | None:
        """(den, rows): the exact form as Python ints, row q the (sign, src,
        num) of coordinate q, for `box_image`; None without an exact form."""
        form = self.exact
        if form is None:
            return None
        return form.den, tuple(zip(form.sign.tolist(), form.src.tolist(), form.nums.tolist()))


def _dyadic(values: np.ndarray) -> tuple[int, np.ndarray | None]:
    """(den, nums) with values = nums / den and den the least power of two
    that makes every nums an integer (`_scaled` takes the lcm of lowest-terms
    denominators); nums is None for a value that is not finite."""
    try:
        den, (nums,) = _scaled(values.tolist())
    except (OverflowError, ValueError):  # an infinite or NaN value
        return 1, None
    big = max(map(abs, nums), default=0) >= 2**63
    return den, np.array(nums, dtype=object if big else np.int64)


def _exact_table(generators, cap: int) -> tuple[np.ndarray, int]:
    """(table, den) for closing the generators exactly; ValueError for
    generators that the exact closure cannot take (module docstring).

    The generators' translations are numerators over den.  An element of
    the closure is coded by `off` = N + (+-(src + 1)) for each of its N
    signed coordinates, then its numerators.  Right multiplication by
    generator g maps a coordinate coded off to table[g, 0, off] and adds
    table[g, 1, off] to its numerator, so a product is one gather.
    """
    forms = [g.exact for g in generators]
    for i, (g, form) in enumerate(zip(generators, forms)):
        if form is None:
            reason = ("a translation is not finite" if not np.isfinite(g.trans).all()
                      else "a fiber map is not a signed permutation matrix")
            raise ValueError(f"generator {i} cannot be closed exactly: {reason}")
    den = math.lcm(*(f.den for f in forms))
    rows = [[v * (den // f.den) for v in f.nums.tolist()] for f in forms]
    largest = max(abs(v) for row in rows for v in row)
    if max(cap, 1) * largest > _EXACT_NUM:
        bits, power = largest.bit_length(), den.bit_length() - 1
        raise ValueError(f"cap {cap} times the largest translation numerator "
                         f"({bits} bits over 2^{power}) exceeds 2^63 - 1")
    n = generators[0].m * generators[0].k
    pick, sgn = _code_columns(n)
    code = np.stack([f.sign * (f.src + 1) for f in forms])
    nums = np.array(rows, dtype=np.int64)
    table = np.empty((len(forms), 2, 2 * n + 1), dtype=np.int64)
    table[:, 0] = n + sgn * code.take(pick, axis=1)
    table[:, 1] = sgn * nums.take(pick, axis=1)
    return table, den


@lru_cache(maxsize=64)
def _code_columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(pick, sign) of each code off = n + u: the coordinate |u| - 1 and the
    sign of u.  off = n codes no coordinate; its column is never read."""
    u = np.arange(-n, n + 1)
    pick = np.abs(u) - 1
    pick[n] = 0
    return pick, np.sign(u)


@lru_cache(maxsize=64)
def _identity_code(n: int) -> bytes:
    return np.concatenate([n + np.arange(1, n + 1), np.zeros(n, dtype=np.int64)]).tobytes()


def _row_products(table: np.ndarray) -> Callable[[bytes], list[bytes]]:
    """products(a) of the exact closure on coded elements (bytes): the
    products of a by every generator, made together by one gather."""
    n = (table.shape[2] - 1) // 2
    size = 16 * n  # bytes per coded element
    bounds = [(g * size, (g + 1) * size) for g in range(len(table))]

    def products(a: bytes) -> list[bytes]:
        code = np.frombuffer(a, dtype=np.int64)
        prod = table.take(code[:n], axis=2)
        prod[:, 1] += code[n:]
        rows = prod.tobytes()
        return [rows[lo:hi] for lo, hi in bounds]

    return products


@dataclass(frozen=True)
class GroupSpec:
    """A finite isometry group, as its elements' arrays stacked along a
    leading axis: element i maps x to maps[i] @ x[perm[i]] + trans[i],
    fiber by fiber.  The arrays are made read-only here.

    words[i] is the tuple of generator indices whose left-to-right product
    equals element i; the identity has the empty word.  exact is the
    elements' stacked exact form.  Every group `group_closure` makes has
    one.  A group built directly from other maps, as the affine-action
    model of a cocycle builds its own, has no generator objects (words
    then index the generators of the group it was built from) and None.
    """

    generators: tuple[FiberPermIsometry, ...]
    perm: np.ndarray  # (n, m)
    maps: np.ndarray  # (n, m, k, k)
    trans: np.ndarray  # (n, m, k)
    words: tuple[tuple[int, ...], ...]
    exact: ExactForm | None = None

    def __post_init__(self):
        for arr in (self.perm, self.maps, self.trans):
            arr.setflags(write=False)

    @property
    def m(self) -> int:
        return self.perm.shape[1]

    @property
    def k(self) -> int:
        return self.trans.shape[2]

    def __len__(self) -> int:
        return len(self.perm)

    def images(self, x: SupPoint) -> np.ndarray:
        """The images g(x) of every element g, in element order, as one
        (n, m, k) array; entry for entry the same floats as applying each
        element on its own with np.einsum."""
        if x.m != self.m or x.k != self.k:
            raise SpaceMismatchError("point shape does not match isometry")
        with np.errstate(over="ignore"):  # an overflow is refused below
            out = np.einsum("ngij,ngj->ngi", self.maps, x.fibers[self.perm]) + self.trans
        if not np.isfinite(out).all():
            raise ValueError("fiber coordinates must be finite")
        return out

    def exact_images(self, x: SupPoint) -> tuple[int, np.ndarray]:
        """(den, nums): the images g(x) of every element, in element order,
        as integer numerators over one denominator, flattened to (n, m k).

        The images are taken in integers from the group's exact form, so
        they are exact for every point, not rounded; nums is int64 where
        that holds every value, else Python ints.  ValueError for a group
        without an exact form.
        """
        form = self.exact
        if form is None:
            raise ValueError("the group has no exact form")
        if x.m != self.m or x.k != self.k:
            raise SpaceMismatchError("point shape does not match isometry")
        x_den, (x_nums,) = _scaled(x.fibers.ravel().tolist())
        den = math.lcm(form.den, x_den)
        fx, ft = den // x_den, den // form.den
        top = max(map(abs, x_nums)) * fx + int(np.abs(form.nums).max()) * ft
        dtype = np.int64 if max(top, ft) < _INT64_SAFE else object
        xs = np.array([v * fx for v in x_nums], dtype=dtype)
        return den, xs[form.src] * form.sign + form.nums.astype(dtype) * ft


def group_closure(
    generators: list[FiberPermIsometry] | tuple[FiberPermIsometry, ...],
    cap: int = 512,
) -> GroupSpec:
    """Close the generators under composition, breadth first, exactly.

    Products are integer gathers on the generators' exact forms, and a
    duplicate is an equal integer key (module docstring).  Raises
    ValueError, naming the reason, for a generator whose fiber maps are
    not signed permutation matrices, for a non-finite translation, and
    where cap times the largest generator numerator exceeds 2^63 - 1.
    Raises GroupNotClosedError when more than `cap` distinct elements
    appear, as for a group of infinite order, so a typo in the generator
    data fails fast instead of looping.
    """
    if not generators:
        raise ValueError("need at least one generator")
    m, k = generators[0].m, generators[0].k
    for g in generators:
        if g.m != m or g.k != k:
            raise SpaceMismatchError("generators act on different spaces")
    table, den = _exact_table(generators, cap)
    n = m * k
    closed = closure(_identity_code(n), _row_products(table), cap)
    size = len(closed.elements)
    codes = np.frombuffer(b"".join(closed.elements), dtype=np.int64).reshape(size, 2, n)
    nums = codes[:, 1]
    signed = codes[:, 0] - n
    src, sign = np.abs(signed) - 1, np.sign(signed)
    # the float arrays of all elements at once; trans is nums * 2^-log2(den)
    # rounded once, so correctly rounded, and exact where |nums| <= 2^53
    perm = src[:, ::k] // k
    maps = np.zeros((size, n, k))
    maps[np.arange(size)[:, None], np.arange(n), src % k] = sign
    maps = maps.reshape(size, m, k, k)
    trans = np.ldexp(nums, 1 - den.bit_length()).reshape(size, m, k)
    for arr in (src, sign):
        arr.setflags(write=False)
    return GroupSpec(tuple(generators), perm, maps, trans, closed.words,
                     ExactForm(src, sign, den, nums))


def orbit(group: GroupSpec, x: SupPoint) -> PointCloud:
    """The images of x under every group element, in element order."""
    return PointCloud._trusted(group.images(x))  # images are new, checked finite


def box_image(iso: FiberPermIsometry, box: Box) -> Box:
    """Exact image of a k = 1 box under a signed-permutation isometry.

    Fiber maps must be exactly +-1 (as floats); translations are floats and
    hence dyadic, so the image bounds are computed without rounding, as
    numerators over one common denominator with those of the isometry's
    exact form, read as Python ints (`_box_rows`, made once per isometry).
    Each image bound is compared with the box's own as it is made.  The
    result is `box` itself exactly when the image equals it, the empty box
    included; a new box is built only when some bound differs.
    """
    if iso.k != 1:
        raise SpaceMismatchError("exact box images are defined for k=1")
    if box.is_empty:
        return box
    if iso.m != box.dim:
        raise SpaceMismatchError("box dimension does not match isometry")
    form = iso._box_rows
    if form is None:
        raise ValueError("fiber map entries must be exactly +1 or -1, translations finite")
    t_den, rows = form
    den = math.lcm(box._den, t_den)
    ft = den // t_den
    lo, hi = box._lo_num, box._hi_num
    if den != box._den:
        lo, hi = _rescaled(lo, box._den, den), _rescaled(hi, box._den, den)
    # image bound i is [lo[p] + t, hi[p] + t], or [t - hi[p], t - lo[p]] for s = -1
    for (s, p, t), a, b in zip(rows, lo, hi):
        t *= ft
        if s > 0:
            if lo[p] + t != a or hi[p] + t != b:
                break
        elif t - hi[p] != a or t - lo[p] != b:
            break
    else:
        return box  # an invariant box is its own image
    lo_out = [lo[p] + t * ft if s > 0 else t * ft - hi[p] for s, p, t in rows]
    hi_out = [hi[p] + t * ft if s > 0 else t * ft - lo[p] for s, p, t in rows]
    return _reduced(box.dim, lo_out, hi_out, den)
