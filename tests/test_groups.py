"""The finite-group kernel against the element-by-element loop forms.

Each `loop_*` function below is the straightforward loop that the array
form in the package replaced.  They scan the known elements or the
element pairs one at a time, so they are slow but obviously right; the
package must agree with them bit for bit: the same elements in the same
order, the same words, tables and inverses, the same law defects and
worst pairs, and the same affine-action model and least-squares solution.
"""

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
from supfix.isometries import (
    FiberPermIsometry,
    _probe_cloud,
    _signature,
    compose,
    group_closure,
)
from supfix.unitary import (
    _MATCH_TOL,
    basis_orbit_norming_set,
    embed,
    model_frame,
    unitary_closure,
)
from supfix.witnesses import (
    _homomorphism_residual,
    _solve_least_squares,
    build_affine_action,
    build_similarity,
    finite_group_algebra_witness,
    model_residual,
)


# -- loop forms ------------------------------------------------------------


def perm_matrix(sigma):
    """P with (P M)[i] = M[sigma(i)]."""
    return np.eye(sigma.shape[0])[sigma]


def loop_group_closure(generators, cap, tol=1e-10):
    m, k = generators[0].m, generators[0].k
    probes = _probe_cloud(m, k)
    elements = [FiberPermIsometry.identity(m, k)]
    words = [()]
    sigs = [_signature(elements[0], probes)]
    frontier = [0]
    while frontier:
        next_frontier = []
        for idx in frontier:
            for gi, g in enumerate(generators):
                cand = compose(elements[idx], g)
                sig = _signature(cand, probes)
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


def scan_closure(identity, generators, multiply, signature, cap, tol):
    """The closure kernel with its duplicate scan written as a fresh
    comparison against every stored signature, first hit in index order."""
    first = np.ravel(signature(identity))
    sigs = np.empty((cap, first.size), dtype=first.dtype)
    sigs[0] = first
    elements, words, parents = [identity], [()], [None]
    right = np.empty((cap, len(generators)), dtype=int)
    i = 0
    while i < len(elements):
        for gi, gen in enumerate(generators):
            cand = multiply(elements[i], gen)
            sig = np.ravel(signature(cand))
            n = len(elements)
            hits = np.flatnonzero(np.abs(sigs[:n] - sig).max(axis=1) <= tol)
            if hits.size:
                right[i, gi] = hits[0]
                continue
            assert n < cap
            sigs[n] = sig
            elements.append(cand)
            words.append(words[i] + (gi,))
            parents.append((i, gi))
            right[i, gi] = n
        i += 1
    return elements, tuple(words), tuple(parents), right[: len(elements)]


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
        p_mat = perm_matrix(model.sigmas[l])
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
            - t_mat[model.sigmas[l]]
            - embed(model.norming, model.derivation.values[l])
        )
        worst[l] = np.linalg.norm(defect, axis=1).max()
    return float(worst.max())


def loop_similarity(model, t_mat):
    """build_similarity one element at a time, with S and its left inverse
    assembled by np.block; the report's fields as a dict."""
    group = model.derivation.group
    size, d, n = model.size, model.d, len(group)
    j_mat = embed(model.norming, np.eye(d))
    t_mat = np.asarray(t_mat, dtype=complex)
    s_mat = np.block([[j_mat, t_mat], [np.zeros((size, d)), j_mat]])
    j_pinv = np.linalg.pinv(j_mat)
    s_left_inv = np.block([[j_pinv, -j_pinv @ t_mat @ j_pinv], [np.zeros((d, size)), j_pinv]])
    us = np.zeros((n, 2 * d, 2 * d), dtype=complex)
    us[:, :d, :d] = us[:, d:, d:] = group.elements
    us[:, :d, d:] = -model.derivation.values
    rows = np.concatenate([model.sigmas, model.sigmas + size], axis=1)
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
        p_mat = perm_matrix(model.sigmas[l])
        blocks.append(
            np.kron(np.eye(model.size), group.elements[l].T) - np.kron(p_mat, np.eye(model.d))
        )
        rhs.append(embed(model.norming, model.derivation.values[l]).reshape(-1))
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


ALGEBRA_GROUPS = [f"cyclic:{n}" for n in range(1, 31)] + [f"symmetric:{n}" for n in range(1, 6)]


# -- tests -----------------------------------------------------------------


class TestIsometryClosure:
    @staticmethod
    def assert_same(group, cap, elements):
        refs, words = loop_group_closure(group.generators, cap)
        assert group.words == tuple(words)
        for got, want in zip(elements(group), refs, strict=True):
            for name in ("perm", "maps", "trans"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

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


class TestClosureScan:
    """The in-place duplicate scan decides as a fresh comparison does, also
    where a product lies within tol of several stored elements (only the
    first counts) or exactly at tol from one."""

    @staticmethod
    def add_mod_seven(a, b):
        """Translation on the torus (R / 7Z)^2: products land between stored
        elements, unlike in a finite group."""
        return np.mod(a + b, 7.0)

    @pytest.mark.parametrize("gens, tol", [
        ((1.3, 2.9), 0.8), ((0.7, 1.9, 4.3), 1.1), ((0.75, 0.5), 0.5), ((0.5,), 0.25),
        ((1 / 3, 1.4142), 0.2),
    ])
    def test_matches_fresh_comparison_on_a_torus(self, gens, tol):
        generators = [np.array([g, -2 * g]) for g in gens]
        identity = np.zeros(2)
        got = closure(identity, right_products(self.add_mod_seven, generators), np.ravel, 64, tol)
        elements, words, parents, right = scan_closure(
            identity, generators, self.add_mod_seven, np.ravel, 64, tol)
        assert [e.tobytes() for e in got.elements] == [e.tobytes() for e in elements]
        assert (got.words, got.parents) == (words, parents)
        assert np.array_equal(got.right, right)

    @pytest.mark.parametrize("tol", [None, 0.5])
    def test_cap_below_one_element(self, tol):
        """The identity alone outgrows a cap of 0, in either mode."""
        signature = (lambda x: x.tobytes()) if tol is None else np.ravel
        with pytest.raises(GroupNotClosedError, match="exceeded 0 elements"):
            closure(np.zeros(2), right_products(self.add_mod_seven, [np.ones(2)]), signature,
                    0, tol)
        if tol is None:  # elements as their own keys
            with pytest.raises(GroupNotClosedError, match="exceeded 0 elements"):
                closure(0, lambda a: [(a + 1) % 7], None, 0, None)

    def test_key_mode_matches_the_scan_on_a_finite_group(self):
        """(Z/7)^2 under addition: equal keys, as tuples or as the elements
        themselves, decide as the scan does at a tolerance below 1."""
        gens = [(1, 3), (2, 5)]
        add = lambda a, b: ((a[0] + b[0]) % 7, (a[1] + b[1]) % 7)  # noqa: E731
        scan = closure(np.zeros(2), right_products(self.add_mod_seven,
                                                   [np.array(g, dtype=float) for g in gens]),
                       np.ravel, 64, 0.5)
        for signature in (None, tuple):
            got = closure((0, 0), right_products(add, gens), signature, 64, None)
            assert [np.array(e, dtype=float).tobytes() for e in got.elements] == [
                e.tobytes() for e in scan.elements]
            assert (got.words, got.parents) == (scan.words, scan.parents)
            assert np.array_equal(got.right, scan.right)

    def test_first_of_several_hits_decides(self):
        generators = [np.array([g, -2 * g]) for g in (0.7, 1.9, 4.3)]
        got = closure(np.zeros(2), right_products(self.add_mod_seven, generators), np.ravel, 64,
                      1.1)
        stored = np.array(got.elements)
        several = 0
        for i, e in enumerate(got.elements):
            for gi, g in enumerate(generators):
                product = self.add_mod_seven(e, g)
                close = np.flatnonzero(np.abs(stored - product).max(axis=1) <= 1.1)
                assert got.right[i, gi] == close[0]
                several += len(close) > 1
        assert several > 0


class TestProductsContract:
    """Every closure asks for the products of each element once, in element
    order: the exact and float isometry closures and the unitary closure."""

    @staticmethod
    def recording(monkeypatch, module):
        """Patch module.closure so that each run records the elements its
        `products` is called with, and the Closure it returns."""
        runs = []

        def recorded(identity, products, signature, cap, tol):
            asked = []

            def counted(a):
                asked.append(a)
                return products(a)

            found = closure(identity, counted, signature, cap, tol)
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

    def test_float_isometry_closure(self, monkeypatch):
        # a translation of 0.1 is off every dyadic grid the exact mode takes
        maps = np.array([1.0, -1.0, -1.0]).reshape(3, 1, 1)
        p = np.array([[0.1], [0.2], [0.3]])
        cycle = FiberPermIsometry(np.array([1, 2, 0]), maps, p - maps[:, :, 0] * p[[1, 2, 0]])
        runs = self.recording(monkeypatch, isometries)
        assert group_closure([cycle], cap=64).exact is None
        self.assert_once_in_order(runs)

    def test_unitary_closure(self, monkeypatch):
        runs = self.recording(monkeypatch, unitary)
        unitary_closure(EXTRA_GENERATORS["2T"], cap=25)  # a cap no other test closes 2T at
        self.assert_once_in_order(runs)


class TestUnitaryKernel:
    @pytest.mark.parametrize("name", list(ORDERS))
    def test_closure_matches_loop(self, unitary_groups, name):
        group = unitary_groups[name]
        elements, words, parents = loop_unitary_closure(group.generators)
        assert len(group) == ORDERS[name]
        assert group.elements.tobytes() == elements.tobytes()
        assert group.words == tuple(words)
        assert group.parents == tuple(parents)

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

    def test_closure_stops_at_cap(self):
        rotation = np.array([[np.exp(1j), 0], [0, 1]])  # infinite order
        with pytest.raises(GroupNotClosedError, match="exceeded 5 elements"):
            closure(np.eye(2, dtype=complex), lambda a: [a @ rotation], np.ravel, 5, 1e-9)


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

    # Rows per block at the law check's byte budget: 24 at order 26, 6 at
    # 50, 4 at 61, 3 at 70, so the last block is short; all 24 rows of
    # symmetric:4 in one block; 1 at 97, 120 (symmetric:5) and 200.
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


class TestAffineActionModel:
    @pytest.mark.parametrize("corrupt", [False, True])
    @pytest.mark.parametrize("name", list(ORDERS))
    def test_model_matches_loop(self, unitary_groups, name, corrupt, elements):
        group = unitary_groups[name]
        data, _ = random_inner_derivation(group, seed=len(name) + 1)
        if corrupt:
            data = corrupt_derivation(data, seed=5)
        model = build_affine_action(data)
        assert np.array_equal(model.norming, loop_norming_set(group))
        sigmas, targets, isos = loop_affine_action(data, model.norming)
        assert np.array_equal(model.sigmas, sigmas)
        assert np.array_equal(model.targets, targets)
        for got, (perm, maps, trans) in zip(elements(model.group_spec), isos, strict=True):
            assert np.array_equal(got.perm, perm)
            assert np.array_equal(got.maps, maps)
            assert np.array_equal(got.trans, trans)
        assert np.array_equal(_solve_least_squares(model), loop_least_squares(model))

    @pytest.mark.parametrize("name", ["q8", "2T", "B3"])
    def test_norming_set_missing_a_vector_is_rejected(self, unitary_groups, name):
        group = unitary_groups[name]
        full = basis_orbit_norming_set(group)
        for drop in (0, len(full) - 1):
            with pytest.raises(SpaceMismatchError, match="not stable"):
                model_frame(group, np.delete(full, drop, axis=0))

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

    @staticmethod
    def derivation(group, kind):
        data, _ = random_inner_derivation(group, seed=7)
        if kind == "corrupt":
            return corrupt_derivation(data, seed=8)
        if kind == "nan":
            values = data.values.copy()
            values[len(group) // 2, 0, -1] = np.nan
            return DerivationData(group, values)
        return data

    @pytest.mark.parametrize("kind", ["valid", "corrupt", "nan"])
    @pytest.mark.parametrize("name", list(ORDERS))
    def test_match_the_loops(self, unitary_groups, name, kind):
        model = build_affine_action(self.derivation(unitary_groups[name], kind))
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
