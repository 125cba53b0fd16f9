"""Surjective affine isometries of the sup-norm model space.

Every map handled here permutes the index set, applies an orthogonal map
in each fiber, and translates:

    (phi x)_g = maps[g] @ x[perm[g]] + trans[g]

This family is closed under composition, which is all the group
machinery needs.  Finite groups are produced by the breadth-first
closure of `groups.closure` over right multiplication by the generators.
A closed group is its elements' arrays stacked along a leading axis
(`GroupSpec`); only its generators are single `FiberPermIsometry`
objects.
An element's signature is its image of a fixed probe cloud, so no
canonical form of the matrix data is required; a product whose signature
is within _CLOSURE_TOL of a known one in every entry (max |diff| <=
_CLOSURE_TOL) is a duplicate.

Exact mode.  When every fiber map is a signed permutation matrix, an
isometry is a signed permutation of the flattened m*k coordinates plus a
translation, and every float translation is a dyadic rational: its
`exact` form holds the permutation, the signs, and the translation as
integer numerators over one power of two.  `group_closure` closes such
generators with integer products and exact keys (the closure kernel's
dict mode) when three conditions make that give the elements the
tolerance rule gives:

- the generators' common denominator is at most 2^33, so two distinct
  translations differ by at least 2^-33 > _CLOSURE_TOL in some entry,
  which the origin probe shows exactly;
- cap times the largest generator numerator is within a limit below
  2^53.  A product the closure makes is a word of at most cap
  generators, so every numerator of every product stays within that
  limit; the float products are then exact (each entry is one +-1 times
  a float plus a float, all on the grid of the denominator) and equal
  the integer ones, with zero entries +0.0 as the products make them;
- the probe cloud of (m, k) tells any two signed coordinates apart by a
  gap that survives the rounding of the signatures at that largest
  translation by more than _CLOSURE_TOL (`_translation_limit`, checked
  once per (m, k)).

Then equal exact forms have byte-equal floats and hence equal
signatures, and unequal ones have signatures more than _CLOSURE_TOL
apart, so a dict lookup finds exactly the one stored element the
tolerance scan would find.  Generators outside those conditions (other
orthogonal maps, translations such as 0.1 whose denominator is 2^55, a
-0.0 translation, which the integers cannot hold, or a cap so large that
words could outgrow the limit) are closed by the float rule.

Products, signatures and the orthogonality test call np.einsum with its
default optimize=False, which hands the operands straight to numpy's C
einsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .boxes import Box, _box_over, _rescaled, _scaled
from .errors import SpaceMismatchError
from .groups import closure
from .spaces import PointCloud, SupPoint

_ORTHO_TOL = 1e-8
_CLOSURE_TOL = 1e-10
_EXACT_DEN = 2**33  # largest translation denominator the exact closure takes
_EXACT_NUM = 2**53 - 1  # largest |numerator| of an exact element
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

        For products of checked maps: the permutations compose to a
        permutation and the orthogonal maps to orthogonal maps.
        """
        for arr in (perm, maps, trans):
            arr.setflags(write=False)
        iso = object.__new__(cls)
        iso.__dict__.update(perm=perm, maps=maps, trans=trans)  # frozen: no __setattr__
        return iso

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

    @classmethod
    def identity(cls, m: int, k: int) -> "FiberPermIsometry":
        return cls._trusted(np.arange(m), np.broadcast_to(np.eye(k), (m, k, k)).copy(),
                            np.zeros((m, k)))


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


def compose(a: FiberPermIsometry, b: FiberPermIsometry) -> FiberPermIsometry:
    """The isometry x -> a(b(x))."""
    if a.trans.shape != b.trans.shape:
        raise SpaceMismatchError("cannot compose isometries of different spaces")
    p = a.perm
    perm = b.perm.take(p)
    maps = np.einsum("gij,gjl->gil", a.maps, b.maps.take(p, axis=0))
    trans = np.einsum("gij,gj->gi", a.maps, b.trans.take(p, axis=0))
    trans += a.trans
    return FiberPermIsometry._trusted(perm, maps, trans)


@lru_cache(maxsize=64)
def _probe_cloud(m: int, k: int) -> np.ndarray:
    """Fixed probe points whose images identify an isometry: the origin,
    one-hot points, and one generic point to split symmetric cases.
    Built once per (m, k) and shared, so read-only."""
    probes = [np.zeros((m, k))]
    one = np.zeros((m, k))
    one[0, 0] = 1.0
    probes.append(one)
    if m > 1 or k > 1:
        rng = np.random.default_rng(20240)
        probes.append(rng.standard_normal((m, k)))
    out = np.stack(probes)
    out.setflags(write=False)
    return out


def _signature(iso: FiberPermIsometry, probes: np.ndarray) -> np.ndarray:
    out = np.einsum("gij,pgj->pgi", iso.maps, probes.take(iso.perm, axis=1))
    out += iso.trans
    return out


def _probe_gap(m: int, k: int) -> float:
    """The least, over two different signed coordinates s x[a] and s' x[b]
    (a != b or s != s'), of the largest difference of their values on the
    probe cloud.  Two elements whose signed permutations differ take
    different signed coordinates somewhere, so on some probe their exact
    signatures differ there by at least this much."""
    cols = _probe_cloud(m, k).reshape(-1, m * k)
    signed = np.concatenate([cols, -cols], axis=1)  # (probes, 2 m k)
    gaps = np.abs(signed[:, :, None] - signed[:, None, :]).max(axis=0)
    np.fill_diagonal(gaps, np.inf)
    return float(gaps.min())


@lru_cache(maxsize=64)
def _translation_limit(m: int, k: int) -> float:
    """The largest |translation| at which the exact closure still decides as
    the tolerance rule does for elements that differ only in their signed
    permutation; 0.0 when the probe cloud cannot tell them apart.

    A signature entry is the float sum of an exact probe value v and the
    translation t, so it is within 2^-53 |v + t| of the real sum.  Two
    elements with equal translations and probe values v1, v2 at least
    `_probe_gap` apart thus have signatures at least
    gap - 2^-52 (max |v| + max |t|) apart; keeping that above
    3 _CLOSURE_TOL leaves room for the rounding of the scan's own
    difference and of this bound."""
    probe_max = float(np.abs(_probe_cloud(m, k)).max())
    return max((_probe_gap(m, k) - 3 * _CLOSURE_TOL) * 2.0**52 - probe_max, 0.0)


def _exact_table(generators, cap: int) -> tuple[np.ndarray, int] | None:
    """(table, den) for closing the generators exactly, or None when the
    conditions of the exact mode (module docstring) do not hold.

    The generators' translations are numerators over den.  An element of
    the closure is coded by `off` = N + (+-(src + 1)) for each of its N
    signed coordinates, then its numerators.  Right multiplication by
    generator g maps a coordinate coded off to table[g, 0, off] and adds
    table[g, 1, off] to its numerator, so a product is one gather.
    """
    forms = [g.exact for g in generators]
    if any(f is None for f in forms):
        return None
    if any(((g.trans == 0.0) & np.signbit(g.trans)).any() for g in generators):
        return None
    den = math.lcm(*(f.den for f in forms))
    if den > _EXACT_DEN:
        return None
    m, k = generators[0].m, generators[0].k
    limit = min(_EXACT_NUM, int(_translation_limit(m, k) * den))
    largest = max(int(np.abs(f.nums).max()) * (den // f.den) for f in forms)
    if cap * largest > limit:
        return None
    n = m * k
    pick, sgn = _code_columns(n)
    code = np.stack([f.sign * (f.src + 1) for f in forms])
    nums = np.stack([f.nums.astype(np.int64) * (den // f.den) for f in forms])
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


def _exact_closure(generators, cap: int) -> "GroupSpec | None":
    """group_closure by the exact mode, or None where it does not apply."""
    found = _exact_table(generators, cap)
    if found is None:
        return None
    table, den = found
    m, k = generators[0].m, generators[0].k
    n = m * k
    closed = closure(_identity_code(n), _row_products(table), None, cap, None)
    size = len(closed.elements)
    codes = np.frombuffer(b"".join(closed.elements), dtype=np.int64).reshape(size, 2, n)
    nums = codes[:, 1]
    signed = codes[:, 0] - n
    src, sign = np.abs(signed) - 1, np.sign(signed)
    # the float arrays the tolerance closure would hold, all elements at once
    perm = src[:, ::k] // k
    maps = np.zeros((size, n, k))
    maps[np.arange(size)[:, None], np.arange(n), src % k] = sign
    maps = maps.reshape(size, m, k, k)
    trans = (nums / den).reshape(size, m, k)
    for arr in (src, sign):
        arr.setflags(write=False)
    return GroupSpec(tuple(generators), perm, maps, trans, closed.words,
                     ExactForm(src, sign, den, nums))


@dataclass(frozen=True)
class GroupSpec:
    """A finite isometry group, as its elements' arrays stacked along a
    leading axis: element i maps x to maps[i] @ x[perm[i]] + trans[i],
    fiber by fiber.  The arrays are made read-only here.

    words[i] is the tuple of generator indices whose left-to-right product
    equals element i; the identity has the empty word.  exact is the
    elements' stacked exact form, where the exact closure made the group.
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

        For a group the exact closure made, the images of x are taken in
        integers, so they are exact for every point, not rounded; nums is
        int64 where that holds every value, else Python ints.  For any
        other group they are the float images, which are dyadic and hence
        exact as they stand.
        """
        form = self.exact
        if form is None:
            flat = self.images(x).reshape(len(self), -1)
            den, nums = _scaled(*flat.tolist())
            return den, np.array(nums, dtype=object)
        if x.m != self.m or x.k != self.k:
            raise SpaceMismatchError("point shape does not match isometry")
        x_den, (x_nums,) = _scaled(x.fibers.ravel().tolist())
        den = math.lcm(form.den, x_den)
        fx, ft = den // x_den, den // form.den
        dtype = np.int64
        if max(map(abs, x_nums)) * fx + int(np.abs(form.nums).max()) * ft >= _INT64_SAFE:
            dtype = object
        xs = np.array([v * fx for v in x_nums], dtype=dtype)
        return den, xs[form.src] * form.sign + form.nums.astype(dtype) * ft


def group_closure(
    generators: list[FiberPermIsometry] | tuple[FiberPermIsometry, ...],
    cap: int = 512,
) -> GroupSpec:
    """Close the generators under composition, breadth first.

    Signed-permutation generators on a fine enough dyadic grid are closed
    in the exact mode, all others by the tolerance rule; where the exact
    mode runs it gives the tolerance rule's elements, words and error
    (module docstring).  Raises GroupNotClosedError when more than `cap`
    distinct elements appear, so a typo in the generator data fails fast
    instead of looping.
    """
    if not generators:
        raise ValueError("need at least one generator")
    m, k = generators[0].m, generators[0].k
    for g in generators:
        if g.m != m or g.k != k:
            raise SpaceMismatchError("generators act on different spaces")
    exact = _exact_closure(generators, cap)
    if exact is not None:
        return exact
    probes = _probe_cloud(m, k)
    found = closure(
        FiberPermIsometry.identity(m, k),
        lambda a: [compose(a, g) for g in generators],
        lambda iso: _signature(iso, probes),
        cap,
        _CLOSURE_TOL,
    )
    perm, maps, trans = (np.stack([getattr(e, name) for e in found.elements])
                         for name in ("perm", "maps", "trans"))
    return GroupSpec(tuple(generators), perm, maps, trans, found.words)


def orbit(group: GroupSpec, x: SupPoint) -> PointCloud:
    """The images of x under every group element, in element order."""
    return PointCloud(group.images(x))


def box_image(iso: FiberPermIsometry, box: Box) -> Box:
    """Exact image of a k = 1 box under a signed-permutation isometry.

    Fiber maps must be exactly +-1 (as floats); translations are floats and
    hence dyadic, so the image bounds are computed without rounding, as
    numerators over one common denominator with those of the isometry's
    exact form.
    """
    if iso.k != 1:
        raise SpaceMismatchError("exact box images are defined for k=1")
    if box.is_empty:
        return Box.empty(box.dim)
    if iso.m != box.dim:
        raise SpaceMismatchError("box dimension does not match isometry")
    form = iso.exact
    if form is None:
        raise ValueError("fiber map entries must be exactly +1 or -1, translations finite")
    den = math.lcm(box._den, form.den)
    lo, hi = _rescaled(box._lo_num, box._den, den), _rescaled(box._hi_num, box._den, den)
    trans = _rescaled(form.nums.tolist(), form.den, den)
    lo_out, hi_out = [], []
    for s, p, t in zip(form.sign.tolist(), form.src.tolist(), trans):
        if s > 0:
            lo_out.append(lo[p] + t)
            hi_out.append(hi[p] + t)
        else:
            lo_out.append(t - hi[p])
            hi_out.append(t - lo[p])
    return _box_over(box.dim, lo_out, hi_out, den)
