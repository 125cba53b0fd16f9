"""The finite-group kernel against the element-by-element loop forms.

Each `loop_*` function below is the straightforward loop that the array
form in the package replaced.  They scan the known elements or the
element pairs one at a time, so they are slow but obviously right; the
package must agree with them bit for bit: the same elements in the same
order, the same words, tables and inverses, the same law defects and
worst pairs, and the same affine-action model and least-squares solution.
"""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from supfix import isometries, unitary
from supfix.cocycles import (
    CayleyGroup,
    DerivationData,
    cocycle_defect,
    translation_law_worst_pair,
)
from supfix.errors import GroupNotClosedError, SpaceMismatchError
from supfix.groups import closure, inverse_indices
from supfix.instances import (
    cayley_group,
    corrupt_cocycle_table,
    corrupt_derivation,
    random_box_group,
    random_fiber_group,
    random_inner_derivation,
    random_translation_cocycle,
    unitary_group,
)
from supfix.isometries import FiberPermIsometry, group_closure
from supfix.unitary import (
    _MATCH_TOL,
    basis_orbit_norming_set,
    embed,
    model_frame,
    tilde_permutation,
    unitary_closure,
)
from supfix.witnesses import (
    _homomorphism_residual,
    _solve_least_squares,
    build_affine_action,
    build_similarity,
    finite_group_algebra_witness,
    model_residual,
    solve_witness,
    witness_residual,
)


# -- loop forms ------------------------------------------------------------


def perm_matrix(sigma):
    """P with (P M)[i] = M[sigma(i)]."""
    return np.eye(sigma.shape[0])[sigma]


def ref_probe_cloud(m, k):
    """Probe points whose images identify an isometry: the origin, one
    one-hot point and, unless m = k = 1, one generic point."""
    probes = [np.zeros((m, k))]
    one = np.zeros((m, k))
    one[0, 0] = 1.0
    probes.append(one)
    if m > 1 or k > 1:
        probes.append(np.random.default_rng(20240).standard_normal((m, k)))
    return np.stack(probes)


def ref_compose(a, b):
    """(perm, maps, trans) of x -> a(b(x)), for a and b given as such triples."""
    perm, maps, trans = a
    return (b[0][perm], np.einsum("gij,gjl->gil", maps, b[1][perm]),
            np.einsum("gij,gj->gi", maps, b[2][perm]) + trans)


def ref_signature(iso, probes):
    """The images of the probes under iso = (perm, maps, trans)."""
    perm, maps, trans = iso
    return np.einsum("gij,pgj->pgi", maps, probes[:, perm, :]) + trans


def ref_identity(m, k):
    return np.arange(m), np.broadcast_to(np.eye(k), (m, k, k)).copy(), np.zeros((m, k))


def compose(a, b):
    """The isometry x -> a(b(x)) of two FiberPermIsometry objects, by the
    einsum products of ref_compose, re-checked by the constructor."""
    return FiberPermIsometry(*ref_compose((a.perm, a.maps, a.trans), (b.perm, b.maps, b.trans)))


def loop_group_closure(generators, cap, tol=1e-10):
    """(elements as (perm, maps, trans) triples, words): the closure by a
    fresh tolerance comparison of probe images, frontier by frontier."""
    m, k = generators[0].m, generators[0].k
    probes = ref_probe_cloud(m, k)
    gens = [(g.perm, g.maps, g.trans) for g in generators]
    elements = [ref_identity(m, k)]
    words = [()]
    sigs = [ref_signature(elements[0], probes)]
    frontier = [0]
    while frontier:
        next_frontier = []
        for idx in frontier:
            for gi, g in enumerate(gens):
                cand = ref_compose(elements[idx], g)
                sig = ref_signature(cand, probes)
                if any(np.allclose(s, sig, atol=tol, rtol=0.0) for s in sigs):
                    continue
                assert len(elements) < cap
                elements.append(cand)
                words.append(words[idx] + (gi,))
                sigs.append(sig)
                next_frontier.append(len(elements) - 1)
        frontier = next_frontier
    return elements, words


def right_products(multiply, generators):
    """The `products` of the closure kernel for a two-argument product."""
    return lambda a: [multiply(a, g) for g in generators]


def scan_closure(identity, generators, multiply):
    """(elements, words, parents, right): the closure with each product
    looked up by a fresh scan of the stored elements for an equal one."""
    elements, words, parents, right = [identity], [()], [None], []
    i = 0
    while i < len(elements):
        row = []
        for gi, gen in enumerate(generators):
            cand = multiply(elements[i], gen)
            if cand not in elements:
                elements.append(cand)
                words.append(words[i] + (gi,))
                parents.append((i, gi))
            row.append(elements.index(cand))
        right.append(row)
        i += 1
    return elements, tuple(words), tuple(parents), np.array(right)


def loop_unitary_closure(gens, tol=1e-9):
    elements = [np.eye(gens.shape[1], dtype=complex)]
    words, parents = [()], [None]
    frontier = [0]
    while frontier:
        nxt = []
        for idx in frontier:
            for gi in range(gens.shape[0]):
                cand = elements[idx] @ gens[gi]
                diffs = [np.abs(e - cand).max() for e in elements]
                if diffs[int(np.argmin(diffs))] <= tol:
                    continue
                elements.append(cand)
                words.append(words[idx] + (gi,))
                parents.append((idx, gi))
                nxt.append(len(elements) - 1)
        frontier = nxt
    return np.stack(elements), words, parents


def unitary_index(group, mat) -> int:
    """Index of the element of the unitary `group` within _MATCH_TOL of mat
    in every entry, the closure's duplicate rule."""
    diffs = np.abs(group.elements - np.asarray(mat, dtype=complex)).max(axis=(1, 2))
    idx = int(np.argmin(diffs))
    if diffs[idx] > _MATCH_TOL:
        raise KeyError("matrix is not an element of the group")
    return idx


def loop_cayley(group):
    n = len(group)
    return np.array(
        [[unitary_index(group, group.elements[i] @ group.elements[j]) for j in range(n)]
         for i in range(n)]
    )


def loop_inverse(group):
    return np.array([unitary_index(group, g.conj().T) for g in group.elements])


def loop_table_inverse(table):
    return np.array([np.nonzero(row == 0)[0][0] for row in table])


def loop_symmetric_table(n):
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return np.array(
        [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]
    ).reshape(len(perms), len(perms))


def loop_cocycle_defect(data):
    g = data.group
    worst, wi, wj = 0.0, 0, 0
    for i in range(len(g)):
        for j in range(len(g)):
            expect = data.values[i] @ g.elements[j] + g.elements[i] @ data.values[j]
            defect = float(np.abs(data.values[g.cayley[i, j]] - expect).max())
            if defect > worst:
                worst, wi, wj = defect, i, j
    return worst, wi, wj


def loop_translation_law_worst_pair(group, c):
    worst, wg, wh = 0.0, 0, 0
    for g in range(len(group)):
        for h in range(len(group)):
            lhs = c[group.table[g, h]]
            rhs = c[g, group.table[h]] + c[h, group.table[:, g]]
            defect = float(np.abs(lhs - rhs).max())
            if defect > worst:
                worst, wg, wh = defect, g, h
    return worst, wg, wh


def row_translation_law_worst_pair(group, c):
    """The law check with one fancy-indexed gather per term and row g, as it
    was before the gathers went through np.take into preallocated buffers."""
    table, n = group.table, len(group)
    defects = np.empty((n, n))
    for g in range(n):
        defects[g] = np.abs(c[table[g]] - (c[g, table] + c[:, table[:, g]])).max(axis=1)
    i, j = np.unravel_index(np.argmax(defects), defects.shape)
    return float(defects[i, j]), int(i), int(j)


def loop_similarity_residuals(model, s_mat):
    """(intertwine, homomorphism) residuals with dense permutation products."""
    group = model.derivation.group
    size, d = model.size, model.d

    def u_of(l):
        g = group.elements[l]
        return np.block([[g, -model.derivation.values[l]], [np.zeros((d, d)), g]])

    inter = 0.0
    for l in range(len(group)):
        p_mat = perm_matrix(model.frame.sigmas[l])
        zero = np.zeros((size, size))
        big_p = np.block([[p_mat, zero], [zero, p_mat]])
        inter = max(inter, float(np.abs(s_mat @ u_of(l) - big_p @ s_mat).max()))
    hom = 0.0
    us = [u_of(l) for l in range(len(group))]
    for i in range(len(group)):
        for j in range(len(group)):
            hom = max(hom, float(np.abs(us[group.cayley[i, j]] - us[i] @ us[j]).max()))
    return inter, hom


def loop_model_residual(model, t_mat):
    """model_residual one element at a time."""
    group = model.derivation.group
    worst = np.empty(len(group))
    for l in range(len(group)):
        defect = (
            t_mat @ group.elements[l]
            - t_mat[model.frame.sigmas[l]]
            - embed(model.frame.norming, model.derivation.values[l])
        )
        worst[l] = np.linalg.norm(defect, axis=1).max()
    return float(worst.max())


def loop_similarity(model, t_mat):
    """build_similarity one element at a time, with S and its left inverse
    assembled by np.block; the report's fields as a dict."""
    group = model.derivation.group
    size, d, n = model.size, model.d, len(group)
    j_mat = embed(model.frame.norming, np.eye(d))
    t_mat = np.asarray(t_mat, dtype=complex)
    s_mat = np.block([[j_mat, t_mat], [np.zeros((size, d)), j_mat]])
    j_pinv = np.linalg.pinv(j_mat)
    s_left_inv = np.block([[j_pinv, -j_pinv @ t_mat @ j_pinv], [np.zeros((d, size)), j_pinv]])
    us = np.zeros((n, 2 * d, 2 * d), dtype=complex)
    us[:, :d, :d] = us[:, d:, d:] = group.elements
    us[:, :d, d:] = -model.derivation.values
    rows = np.concatenate([model.frame.sigmas, model.frame.sigmas + size], axis=1)
    inter, hom = np.empty(n), np.empty(n)
    for l in range(n):
        inter[l] = np.abs(s_mat @ us[l] - s_mat[rows[l]]).max()
        hom[l] = np.abs(us[group.cayley[l]] - us[l] @ us).max()
    return {
        "s_mat": s_mat,
        "s_left_inv": s_left_inv,
        "intertwine_residual": float(inter.max()),
        "left_inverse_residual": float(np.abs(s_left_inv @ s_mat - np.eye(2 * d)).max()),
        "homomorphism_residual": float(hom.max()),
        "s_norm": float(np.linalg.norm(s_mat, 2)),
        "s_left_inv_norm": float(np.linalg.norm(s_left_inv, 2)),
    }


def inline_witness_residual(derivation, t0):
    """witness_residual with both products written out, as it was before
    it called `inner_derivation`."""
    g = derivation.group.elements
    defect = (
        np.einsum("ij,njl->nil", t0, g)
        - np.einsum("nij,jl->nil", g, t0)
        - derivation.values
    )
    return float(np.abs(defect).max())


def inline_algebra_residual(group, c, t):
    """The group-algebra witness residual as it was written before it
    called `translation_cocycle`."""
    return float(np.abs(c - (t[group.table] - t[group.table.T])).max())


def loop_orbit_of_zero(group, c):
    inv = loop_table_inverse(group.table)
    return np.array([c[g, group.table[inv[g]]] for g in range(len(group))])


def loop_norming_set(group, tol=1e-9):
    vectors = []
    for j in range(group.d):
        for g in group.elements:
            v = g[:, j]
            if not any(np.abs(v - w).max() <= tol for w in vectors):
                vectors.append(v)
    return np.stack(vectors)


def pairwise_norming_set(group, tol=1e-9):
    """The norming rule before the orbit permutations: every candidate
    g_l e_j (basis index outer, element inner) compared with every other
    within tol, and each kept unless it lies within tol of a kept one."""
    cands = group.elements.transpose(2, 0, 1).reshape(-1, group.d)  # row j n + l: g_l e_j
    close = np.abs(cands[:, None] - cands[None]).max(axis=2) <= tol
    dropped = np.zeros(len(cands), dtype=bool)
    kept = []
    for a in range(len(cands)):
        if not dropped[a]:
            kept.append(a)
            dropped |= close[a]
    return cands[kept]


def loop_tilde_permutation(norming, g):
    sigma = []
    for v in norming @ g.conj():
        diffs = np.abs(norming - v).max(axis=1)
        idx = int(np.argmin(diffs))
        if diffs[idx] > _MATCH_TOL:
            raise SpaceMismatchError("norming set is not stable under the group")
        sigma.append(idx)
    return np.array(sigma)


def loop_affine_action(data, norming):
    """(sigmas, targets, [(perm, maps, trans)]) one element at a time."""
    group = data.group
    sigmas, targets, isos = [], [], []
    for g, value in zip(group.elements, data.values):
        sigma = loop_tilde_permutation(norming, g)
        target = embed(norming, value) @ g.conj().T
        b = g.conj()
        fiber_map = np.block([[b.real, -b.imag], [b.imag, b.real]])
        maps = np.broadcast_to(fiber_map, (len(norming),) + fiber_map.shape).copy()
        trans = np.concatenate([target.real, target.imag], axis=1)
        sigmas.append(sigma)
        targets.append(target)
        isos.append((sigma, maps, trans))
    return np.stack(sigmas), np.stack(targets), isos


def loop_least_squares(model):
    """The stacked system built one Kronecker block per element."""
    group = model.derivation.group
    blocks, rhs = [], []
    for l in range(len(group)):
        p_mat = perm_matrix(model.frame.sigmas[l])
        blocks.append(
            np.kron(np.eye(model.size), group.elements[l].T) - np.kron(p_mat, np.eye(model.d))
        )
        rhs.append(embed(model.frame.norming, model.derivation.values[l]).reshape(-1))
    sol, *_ = np.linalg.lstsq(np.vstack(blocks), np.concatenate(rhs), rcond=None)
    return sol.reshape(model.size, model.d)


# -- inputs ----------------------------------------------------------------


def quaternion(a, b, c, d):
    """The SU(2) matrix of the unit quaternion a + bi + cj + dk."""
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


PHI = (1 + 5**0.5) / 2
OMEGA = quaternion(0.5, 0.5, 0.5, 0.5)  # order 6
EXTRA_GENERATORS = {
    "2T": (quaternion(0, 1, 0, 0), OMEGA),  # binary tetrahedral, order 24
    "2O": (quaternion(2**-0.5, 2**-0.5, 0, 0), OMEGA),  # binary octahedral, 48
    "2I": (OMEGA, quaternion(PHI / 2, 1 / (2 * PHI), 0.5, 0)),  # binary icosahedral, 120
    "B3": (  # signed 3 x 3 permutations, order 48
        np.array([[0.0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        np.diag([-1.0, 1, 1]),
    ),
}
ORDERS = {"q8": 8, "s3": 6, "c12": 12, "2T": 24, "2O": 48, "2I": 120, "B3": 48}


@pytest.fixture(scope="module")
def unitary_groups():
    groups = {name: unitary_group(name) for name in ("q8", "s3", "c12")}
    groups.update({name: unitary_closure(gens) for name, gens in EXTRA_GENERATORS.items()})
    return groups


def family_generators(name):
    """diag(w, 1) for "cyclic:n", <diag(w, conj(w)), swap> for "dihedral:n",
    with w = exp(2 pi i / n)."""
    family, _, n = name.partition(":")
    w = np.exp(2j * np.pi / int(n))
    if family == "cyclic":
        return [np.diag([w, 1])]
    return [np.diag([w, np.conj(w)]), np.array([[0, 1], [1, 0]], dtype=complex)]


FAMILIES = [f"{family}:{n}" for family in ("cyclic", "dihedral") for n in range(1, 41)]
# sha256 over the model frames of ORDERS then FAMILIES: norming, maps, J and
# J^+ with dtype and shape, as the commit before the frame permutations were
# read off the closure made them
FRAME_DIGEST = "248557df99e5b1d4d8b4e24dd721c2d6c1e517218c53436bb51225546a36a282"
ALGEBRA_GROUPS = [f"cyclic:{n}" for n in range(1, 31)] + [f"symmetric:{n}" for n in range(1, 6)]
KINDS = ("valid", "corrupt", "nan")


def kind_derivation(group, kind):
    """A random inner derivation on group, as it is, corrupted, or with one NaN value."""
    data, _ = random_inner_derivation(group, seed=7)
    if kind == "corrupt":
        return corrupt_derivation(data, seed=8)
    if kind == "nan":
        values = data.values.copy()
        values[len(group) // 2, 0, -1] = np.nan
        return DerivationData(group, values)
    return data


# -- tests -----------------------------------------------------------------


class TestIsometryClosure:
    @staticmethod
    def assert_same(group, cap, elements):
        refs, words = loop_group_closure(group.generators, cap)
        assert group.words == tuple(words)
        for got, want in zip(elements(group), refs, strict=True):
            for name, ref in zip(("perm", "maps", "trans"), want):
                assert getattr(got, name).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("seed", range(50))
    def test_box_groups(self, seed, elements):
        dim, max_order = 2 + seed % 9, (12, 24, 48)[seed % 3]
        group, _ = random_box_group(seed, dim, max_order)
        self.assert_same(group, max_order + 1, elements)

    @pytest.mark.parametrize("seed", range(50))
    def test_fiber_groups(self, seed, elements):
        fibers, fiber_dim, max_order = 1 + seed % 6, 1 + seed % 4, (12, 24, 48)[seed % 3]
        group, _ = random_fiber_group(seed, fibers, fiber_dim, max_order)
        self.assert_same(group, max_order + 1, elements)


    def test_box_group_at_the_schema_cap(self, elements):
        group, _ = random_box_group(2, dim=64, max_order=512)
        assert len(group) > 200
        self.assert_same(group, 513, elements)

    def test_fiber_group_at_the_schema_cap(self, elements):
        group, _ = random_fiber_group(2, fibers=16, fiber_dim=8, max_order=512)
        assert len(group) > 100
        self.assert_same(group, 513, elements)

    @pytest.mark.parametrize("seed", range(3))
    def test_cap_error_where_the_loop_overflows(self, seed, elements):
        group, _ = random_fiber_group(seed, fibers=4, fiber_dim=3, max_order=48)
        cap = len(group) - 1
        with pytest.raises(AssertionError):  # the loop's `len(elements) < cap`
            loop_group_closure(group.generators, cap)
        with pytest.raises(GroupNotClosedError):
            group_closure(group.generators, cap=cap)
        self.assert_same(group, len(group), elements)


class TestClosureKernel:
    """Equal keys decide as a fresh scan for an equal stored element does,
    with the elements themselves or their bytes as keys."""

    @staticmethod
    def add_mod_seven(a, b):
        return ((a[0] + b[0]) % 7, (a[1] + b[1]) % 7)

    @staticmethod
    def compose(a, b):
        """Permutations as tuples: (a * b)[i] = a[b[i]]."""
        return tuple(a[i] for i in b)

    @pytest.mark.parametrize("gens", [[(1, 3), (2, 5)], [(0, 1)], [(0, 0)], [(3, 3), (4, 4)]])
    def test_matches_the_scan_on_a_finite_abelian_group(self, gens):
        """(Z/7)^2 under addition."""
        got = closure((0, 0), right_products(self.add_mod_seven, gens), 64)
        elements, words, parents, right = scan_closure((0, 0), gens, self.add_mod_seven)
        assert got.elements == elements
        assert (got.words, got.parents) == (words, parents)
        assert np.array_equal(got.right, right)

    def test_bytes_keys_match_the_scan_on_a_permutation_group(self):
        """S_4 from a 4-cycle and a transposition, as permutation tuples and
        as the bytes of permutation arrays, the keys the unitary closure uses."""
        gens = [(1, 2, 3, 0), (1, 0, 2, 3)]
        elements, words, parents, right = scan_closure((0, 1, 2, 3), gens, self.compose)
        assert len(elements) == 24
        arrays = [np.array(g) for g in gens]
        got = closure(np.arange(4).tobytes(),
                      lambda a: [np.frombuffer(a, dtype=int)[g].tobytes() for g in arrays], 24)
        assert [tuple(np.frombuffer(e, dtype=int)) for e in got.elements] == elements
        assert (got.words, got.parents) == (words, parents)
        assert np.array_equal(got.right, right)

    @pytest.mark.parametrize("cap", [-1, 0])
    def test_cap_below_one_element(self, cap):
        """The identity alone outgrows a cap below 1."""
        with pytest.raises(GroupNotClosedError, match=f"exceeded {cap} elements"):
            closure(0, lambda a: [(a + 1) % 7], cap)

    def test_closure_stops_at_cap(self):
        """Z/7 closes at cap 7 and stops at cap 6, as do products that never repeat."""
        assert len(closure(0, lambda a: [(a + 1) % 7], 7).elements) == 7
        for products in (lambda a: [(a + 1) % 7], lambda a: [a + 1]):
            with pytest.raises(GroupNotClosedError, match="exceeded 6 elements"):
                closure(0, products, 6)


class TestProductsContract:
    """Every closure asks for the products of each element once, in element
    order: the isometry closure and the unitary closure."""

    @staticmethod
    def recording(monkeypatch, module):
        """Patch module.closure so that each run records the elements its
        `products` is called with, and the Closure it returns."""
        runs = []

        def recorded(identity, products, cap):
            asked = []

            def counted(a):
                asked.append(a)
                return products(a)

            found = closure(identity, counted, cap)
            runs.append((asked, found))
            return found

        monkeypatch.setattr(module, "closure", recorded)
        return runs

    @staticmethod
    def assert_once_in_order(runs):
        (asked, found), = runs
        assert len(found.elements) > 2
        assert len(asked) == len(found.elements)
        assert all(a is e for a, e in zip(asked, found.elements))

    def test_exact_isometry_closure(self, monkeypatch):
        generators = random_box_group(3, dim=6, max_order=48)[0].generators
        runs = self.recording(monkeypatch, isometries)
        assert group_closure(generators, cap=49).exact is not None
        self.assert_once_in_order(runs)

    def test_unitary_closure(self, monkeypatch):
        runs = self.recording(monkeypatch, unitary)
        unitary_closure(EXTRA_GENERATORS["2T"], cap=25)  # a cap no other test closes 2T at
        self.assert_once_in_order(runs)


class TestUnitaryKernel:
    @pytest.mark.parametrize("name", list(ORDERS) + FAMILIES)
    def test_closure_matches_loop(self, unitary_groups, name):
        """Elements, words, parents, right table, Cayley table and norming
        rows equal the matrix-by-matrix loop forms bit for bit."""
        if name in ORDERS:
            group = unitary_groups[name]
            assert len(group) == ORDERS[name]
        else:
            group = unitary_closure(family_generators(name))
        elements, words, parents = loop_unitary_closure(group.generators)
        assert group.elements.tobytes() == elements.tobytes()
        assert group.words == tuple(words)
        assert group.parents == tuple(parents)
        right = [[unitary_index(group, a @ g) for g in group.generators] for a in group.elements]
        assert np.array_equal(group.right, right)
        assert np.array_equal(group.cayley, loop_cayley(group))
        norming = basis_orbit_norming_set(group)
        assert norming.tobytes() == pairwise_norming_set(group).tobytes()
        assert norming.tobytes() == loop_norming_set(group).tobytes()

    def test_frames_match_the_matched_permutations(self, unitary_groups):
        """sigma_l, read off the closure, is `tilde_permutation` of element l,
        and the frame arrays keep their bytes."""
        h = hashlib.sha256()
        for name in [*ORDERS, *FAMILIES]:
            group = unitary_groups.get(name) or unitary_closure(family_generators(name))
            frame = group.frame
            matched = [tilde_permutation(frame.norming, g) for g in group.elements]
            assert np.array_equal(frame.sigmas, matched), name
            for arr in (frame.norming, frame.maps, frame.j_mat, frame.j_pinv):
                h.update(f"{arr.dtype}{arr.shape}".encode() + arr.tobytes())
        assert h.hexdigest() == FRAME_DIGEST

    def test_frame_calls_no_tilde_permutation(self, unitary_groups, monkeypatch):
        """Building a frame matches no vectors: sigma is one gather."""
        calls = []
        monkeypatch.setattr(unitary, "tilde_permutation",
                            lambda *args: calls.append(args) or tilde_permutation(*args))
        for group in unitary_groups.values():
            model_frame(group)
        assert calls == []

    @pytest.mark.parametrize("name", list(ORDERS))
    def test_cayley_and_inverse_match_loop(self, unitary_groups, name):
        group = unitary_groups[name]
        assert np.array_equal(group.cayley, loop_cayley(group))
        inverse = inverse_indices(group.cayley)
        assert np.array_equal(inverse, loop_inverse(group))
        assert np.array_equal(inverse, loop_table_inverse(group.cayley))

    @pytest.mark.parametrize("corrupt", [False, True])
    @pytest.mark.parametrize("name", list(ORDERS))
    def test_cocycle_defect_matches_loop(self, unitary_groups, name, corrupt):
        data, _ = random_inner_derivation(unitary_groups[name], seed=len(name))
        if corrupt:
            data = corrupt_derivation(data, seed=3)
        assert cocycle_defect(data) == loop_cocycle_defect(data)

    @pytest.mark.parametrize("name", list(ORDERS))
    def test_similarity_residuals_match_loop(self, unitary_groups, name):
        data, _ = random_inner_derivation(unitary_groups[name], seed=11)
        model = build_affine_action(data)
        t_mat = model.targets.mean(axis=0)
        report = build_similarity(model, t_mat)
        assert (report.intertwine_residual, report.homomorphism_residual) == (
            loop_similarity_residuals(model, report.s_mat)
        )

    def test_rotation_stops_at_the_orbit_limit(self, monkeypatch):
        """A rotation of infinite order outgrows the basis orbit's limit of
        d cap vectors before the permutation closure runs."""
        monkeypatch.setattr(unitary, "closure", None)  # never reached
        rotation = np.array([[np.exp(1j), 0], [0, 1]])
        with pytest.raises(GroupNotClosedError, match="exceeded 5 elements"):
            unitary_closure([rotation], cap=5)


class TestCayleyKernel:
    @pytest.mark.parametrize("name", ALGEBRA_GROUPS)
    def test_tables_inverses_and_law_match_loop(self, name):
        group = cayley_group(name)
        n = int(name.partition(":")[2])
        if name.startswith("symmetric"):
            assert np.array_equal(group.table, loop_symmetric_table(n))
        assert np.array_equal(group.inverse, loop_table_inverse(group.table))
        c, _ = random_translation_cocycle(group, seed=n)
        for table in (c, corrupt_cocycle_table(c, seed=n + 1) if n > 1 else c):
            assert translation_law_worst_pair(group, table) == (
                loop_translation_law_worst_pair(group, table)
            )
            report = finite_group_algebra_witness(group, table)
            t = loop_orbit_of_zero(group, table).mean(axis=0)
            assert report.t_witness.tobytes() == (t - t.mean()).tobytes()

    @pytest.mark.parametrize("name", [f"cyclic:{n}" for n in range(1, 61)]
                             + [f"symmetric:{n}" for n in range(1, 6)])
    def test_law_check_matches_the_row_gather_form(self, name):
        """Same worst float and same pair on valid, corrupted and NaN data."""
        group = cayley_group(name)
        n = len(group)
        c, _ = random_translation_cocycle(group, seed=n)
        tables = [c, corrupt_cocycle_table(c, seed=n + 1) if n > 1 else c]
        for where in ((0, 0), (n - 1, n // 2), (n // 3, n - 1)):
            bad = tables[1].copy()
            bad[where] = np.nan
            tables.append(bad)
        for table in tables:
            got = translation_law_worst_pair(group, table)
            want = row_translation_law_worst_pair(group, table)
            assert repr(got) == repr(want)

    @staticmethod
    def nonfinite_tables(c, seed):
        """A corrupted table, then copies with +inf, -inf, -0.0 entries, an
        all-NaN row, 1e300-scale values and values whose sums overflow."""
        n = len(c)
        bad = corrupt_cocycle_table(c, seed)
        tables = [bad]
        for where, value in (((n // 2, n - 1), np.inf), ((n - 1, 0), -np.inf),
                             ((0, n // 3), -0.0)):
            table = bad.copy()
            table[where] = value
            tables.append(table)
        table = c.copy()
        table[n // 3 :: max(1, n // 4)] = -0.0  # whole rows of signed zeros
        tables.append(table)
        table = bad.copy()
        table[n - 1] = np.nan
        tables.append(table)
        tables += [bad * 1e300, np.where(c < 0, -1.7e308, 1.7e308)]
        return tables

    # Rows per block at the law check's byte budget: all 26 at order 26, 19
    # at 50, 13 at 61 and 5 at 97, so the last block is short, and 10 at 70;
    # all 24 rows of symmetric:4 in one block; 3 at 120 (symmetric:5), 1 at 200.
    @pytest.mark.parametrize("name", ["cyclic:26", "cyclic:50", "cyclic:61", "cyclic:70",
                                      "cyclic:97", "cyclic:200", "symmetric:4", "symmetric:5"])
    def test_law_check_blocks_match_the_row_gather_form(self, name):
        """Same worst float and same pair whatever the block edges, on
        non-finite, signed-zero and overflowing data too."""
        group = cayley_group(name)
        c, _ = random_translation_cocycle(group, seed=len(group))
        for table in self.nonfinite_tables(c, seed=len(group) + 1):
            got = translation_law_worst_pair(group, table)
            with np.errstate(invalid="ignore", over="ignore"):
                want = row_translation_law_worst_pair(group, table)
            assert repr(got) == repr(want)

    @staticmethod
    def relabelled(group, seed):
        """The same group with its elements renumbered by a random
        permutation that keeps the identity at index 0."""
        n = len(group)
        perm = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(n - 1)])
        table = np.empty((n, n), dtype=int)
        table[perm[:, None], perm[None, :]] = perm[group.table]
        labels = np.empty(n, dtype=object)
        labels[perm] = group.labels
        return CayleyGroup(tuple(labels), table)

    # Cyclic tables have g^{-1} v g = v; these have not (c12 aside), so they
    # check the conjugation and the inverse in the twisted table.
    @pytest.mark.parametrize("name", [*ORDERS, "symmetric:4", "symmetric:5"])
    def test_law_check_on_nonabelian_tables_matches_the_row_gather_form(
            self, unitary_groups, name):
        """Same worst float and same pair on the Cayley tables of the unitary
        groups and on relabelled symmetric groups, on valid, corrupted,
        non-finite and overflowing data."""
        if name in ORDERS:
            group = CayleyGroup(unitary_groups[name].labels, unitary_groups[name].cayley)
        else:
            group = self.relabelled(cayley_group(name), seed=len(name))
        n = len(group)
        c, _ = random_translation_cocycle(group, seed=n)
        for table in [c, *self.nonfinite_tables(c, seed=n + 1)]:
            got = translation_law_worst_pair(group, table)
            with np.errstate(invalid="ignore", over="ignore"):
                want = row_translation_law_worst_pair(group, table)
            assert repr(got) == repr(want)

    def test_law_check_at_the_schema_cap_matches_the_row_gather_form(self):
        group = cayley_group("cyclic:512")
        c, _ = random_translation_cocycle(group, seed=512)
        table = corrupt_cocycle_table(c, seed=513)
        assert repr(translation_law_worst_pair(group, table)) == repr(
            row_translation_law_worst_pair(group, table))

    def test_law_check_peak_memory_at_the_schema_cap(self):
        """A few (n, n) arrays, never an (n, n, n) one: that would be 1 GB."""
        group = cayley_group("cyclic:512")
        c, _ = random_translation_cocycle(group, seed=1)
        tracemalloc.start()
        try:
            translation_law_worst_pair(group, c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("entry", [-1, 3, 7])
    def test_table_entries_must_be_element_indices(self, entry):
        table = np.array(CayleyGroup.cyclic(3).table)
        table[1, 2] = entry
        with pytest.raises(ValueError, match="element indices"):
            CayleyGroup(("a", "b", "c"), table)

    def test_symmetric_group_labels_are_lexicographic(self):
        group = CayleyGroup.symmetric(3)
        assert group.labels == ("012", "021", "102", "120", "201", "210")


# sha256 of build_affine_action(kind_derivation(group, kind)).group_spec over
# KINDS: perm, maps and trans with dtype and shape, then repr(words), as the
# commit before the model group was built on demand made them
MODEL_GROUP_DIGESTS = {
    "q8": "4550f319ccdbf2ec88ade81375a7f92bc9d0a16a23a8df1b6c9b1fb0ead40a54",
    "s3": "ce3bbcb28017f67faab4536afc82a714719546b9994dc0922d8a51460b666028",
    "c12": "43b142d5afd9bb6a88afdd31acfc9643af5032a89b42b3385ee85fa3f732c522",
    "2T": "a562b58f61adcc41e03224520c0a6b8d0716f2ddc6e627452b61bbfb3d5e632e",
    "2O": "76c731d32e77924dbfdf7fd50de320270ba6cfcaef3d0905d237b47d68196946",
    "2I": "8d7075fb9216cd572ba9829276e04856a689281830058c7b1473213a101cac2b",
    "B3": "4d094820f5b6ad3adcb74a0cb5d8dae4cf61144a43143a5afc68da37fdd106e5",
}


class TestAffineActionModel:
    @pytest.mark.parametrize("corrupt", [False, True])
    @pytest.mark.parametrize("name", list(ORDERS))
    def test_model_matches_loop(self, unitary_groups, name, corrupt, elements):
        group = unitary_groups[name]
        data, _ = random_inner_derivation(group, seed=len(name) + 1)
        if corrupt:
            data = corrupt_derivation(data, seed=5)
        model = build_affine_action(data)
        assert np.array_equal(model.frame.norming, loop_norming_set(group))
        sigmas, targets, isos = loop_affine_action(data, model.frame.norming)
        assert np.array_equal(model.frame.sigmas, sigmas)
        assert np.array_equal(model.targets, targets)
        for got, (perm, maps, trans) in zip(elements(model.group_spec), isos, strict=True):
            assert np.array_equal(got.perm, perm)
            assert np.array_equal(got.maps, maps)
            assert np.array_equal(got.trans, trans)
        assert np.array_equal(_solve_least_squares(model), loop_least_squares(model))

    @pytest.mark.parametrize("name", list(ORDERS))
    def test_model_group_bytes(self, unitary_groups, name):
        """The model's isometry group, built on demand with no generator
        objects, has the perm, maps, trans and words it had when the model
        built it eagerly (digests over valid, corrupted and NaN data)."""
        h = hashlib.sha256()
        for kind in KINDS:
            model = build_affine_action(kind_derivation(unitary_groups[name], kind))
            spec = model.group_spec
            assert spec is model.group_spec and spec.generators == () and spec.exact is None
            for arr in (spec.perm, spec.maps, spec.trans):
                h.update(f"{arr.dtype}{arr.shape}".encode() + arr.tobytes())
            h.update(repr(spec.words).encode())
        assert h.hexdigest() == MODEL_GROUP_DIGESTS[name]

    def test_least_squares_peak_memory_near_system_size(self, unitary_groups):
        """The system is assembled in place: no per-element blocks, no stacked copy."""
        data, _ = random_inner_derivation(unitary_groups["2O"], seed=2)
        model = build_affine_action(data)
        n, size, d = len(data.group), model.size, model.d
        system_bytes = n * size * d * size * d * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            _solve_least_squares(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * system_bytes


class TestBatchedChecks:
    """model_residual and build_similarity, stacked over all elements, give
    the floats of their per-element loops on valid, corrupted and NaN data."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", list(ORDERS))
    def test_match_the_loops(self, unitary_groups, name, kind):
        model = build_affine_action(kind_derivation(unitary_groups[name], kind))
        rng = np.random.default_rng(len(name))
        shape = (model.size, model.d)
        averaging = model.targets.mean(axis=0)  # the model solution on valid data
        for t_mat in (averaging, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)):
            assert repr(model_residual(model, t_mat)) == repr(loop_model_residual(model, t_mat))
            if not np.isfinite(t_mat).all():
                continue  # S would be non-finite, and its norm undefined
            got, want = build_similarity(model, t_mat), loop_similarity(model, t_mat)
            assert got.s_mat.tobytes() == want["s_mat"].tobytes()
            assert got.s_left_inv.tobytes() == want["s_left_inv"].tobytes()
            assert {k: repr(v) for k, v in got.as_dict().items()} == {
                k: repr(want[k]) for k in got.as_dict()}

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", list(ORDERS))
    def test_witness_residual_matches_the_inline_form(self, unitary_groups, name, kind):
        """witness_residual through `inner_derivation` gives the repr of the
        inline products, on the averaging witness and on random ones."""
        data = kind_derivation(unitary_groups[name], kind)
        rep = solve_witness(data, method="averaging")
        assert repr(rep.witness_residual) == repr(inline_witness_residual(data, rep.t0))
        rng = np.random.default_rng(len(name))
        shape = (data.d, data.d)
        for t0 in (rep.t0, rng.standard_normal(shape),
                   rng.standard_normal(shape) + 1j * rng.standard_normal(shape)):
            assert repr(witness_residual(data, t0)) == repr(inline_witness_residual(data, t0))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", [*ORDERS, "cyclic:6", "symmetric:4"])
    def test_algebra_residual_matches_the_inline_form(self, unitary_groups, name, kind):
        """The group-algebra residual through `translation_cocycle` gives the
        repr of the inline gathers, on the Cayley tables of the unitary
        groups too."""
        if name in ORDERS:
            group = CayleyGroup(unitary_groups[name].labels, unitary_groups[name].cayley)
        else:
            group = cayley_group(name)
        n = len(group)
        c, _ = random_translation_cocycle(group, seed=n)
        if kind == "corrupt":
            c = corrupt_cocycle_table(c, seed=n + 1)
        elif kind == "nan":
            c[n // 2, -1] = np.nan
        rep = finite_group_algebra_witness(group, c)
        assert repr(rep.residual) == repr(inline_algebra_residual(group, c, rep.t_witness))
        assert rep.flagged == (kind != "valid")

    @pytest.mark.parametrize("worst_row", ["first", "last"])
    def test_homomorphism_blocks_cover_every_row(self, unitary_groups, worst_row):
        """On 2I the rows take several blocks; a stack of random u whose
        worst pair lies in the first or in the last row gives the loop's float."""
        cayley = unitary_groups["2I"].cayley
        n = len(cayley)
        rng = np.random.default_rng(5)
        us = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
        scale = np.arange(1.0, n + 1)
        us *= (scale if worst_row == "last" else scale[::-1])[:, None, None]
        want = max(float(np.abs(us[cayley[g]] - us[g] @ us).max()) for g in range(n))
        assert _homomorphism_residual(us, cayley) == want
