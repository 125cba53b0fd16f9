"""Unitary group closure and model embedding tests.

The named groups have well-known multiplication structure, used here as
hand oracles: the quaternion relations for the 2 x 2 group, permutation
composition for the 3 x 3 one, and phase arithmetic for the cyclic one.
"""

import numpy as np
import pytest
from test_groups import unitary_index

from supfix import unitary
from supfix.errors import GroupNotClosedError
from supfix.groups import inverse_indices
from supfix.instances import _NAMED_GENERATORS, unitary_group
from supfix.unitary import (
    basis_orbit_norming_set,
    embed,
    realify_matrix,
    tilde_permutation,
    unitary_closure,
)


def perm_matrix(sigma):
    """P with (P M)[i] = M[sigma(i)]."""
    return np.eye(sigma.shape[0])[sigma]


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


class TestClosure:
    def test_orders(self, named_groups):
        assert len(named_groups["q8"]) == 8
        assert len(named_groups["s3"]) == 6
        assert len(named_groups["c12"]) == 12

    def test_quaternion_relations(self, named_groups):
        """i^2 = j^2 = k^2 = ijk = -1, the defining relations."""
        g = named_groups["q8"]
        i_mat = np.array([[1j, 0], [0, -1j]])
        j_mat = np.array([[0, 1], [-1, 0]], dtype=complex)
        k_mat = i_mat @ j_mat
        minus_one = -np.eye(2)
        for mat in (i_mat @ i_mat, j_mat @ j_mat, k_mat @ k_mat, i_mat @ j_mat @ k_mat):
            assert np.allclose(mat, minus_one)
            unitary_index(g, mat)  # and they are all the same group element

    def test_c12_phases(self, named_groups):
        g = named_groups["c12"]
        gen = np.diag([np.exp(1j * np.pi / 6), np.exp(-1j * np.pi / 6)])
        acc = np.eye(2, dtype=complex)
        seen = set()
        for _ in range(12):
            seen.add(unitary_index(g, acc))
            acc = acc @ gen
        assert len(seen) == 12
        assert np.allclose(acc, np.eye(2), atol=1e-12)

    def test_cayley_table_is_a_group(self, named_groups):
        for g in named_groups.values():
            table = g.cayley
            n = len(g)
            # identity row and column, and each row/column a permutation
            assert np.array_equal(table[0], np.arange(n))
            assert np.array_equal(table[:, 0], np.arange(n))
            for i in range(n):
                assert sorted(table[i]) == list(range(n))
                assert sorted(table[:, i]) == list(range(n))

    def test_cayley_matches_matrix_products(self, named_groups):
        g = named_groups["s3"]
        for i in range(len(g)):
            for j in range(len(g)):
                want = g.elements[i] @ g.elements[j]
                assert np.allclose(g.elements[g.cayley[i, j]], want, atol=1e-12)

    def test_inverse_table(self, named_groups):
        for g in named_groups.values():
            for i, inv in enumerate(inverse_indices(g.cayley)):
                assert g.cayley[i, inv] == 0

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            unitary_closure([np.array([[2.0, 0], [0, 1.0]])])

    def test_infinite_group_capped(self):
        theta = 1.0  # irrational multiple of pi, never closes
        g = np.array([[np.exp(1j * theta), 0], [0, 1]])
        with pytest.raises(GroupNotClosedError):
            unitary_closure([g], cap=100)

    def test_words_reproduce_elements(self, named_groups):
        g = named_groups["q8"]
        for idx, word in enumerate(g.words):
            acc = np.eye(g.d, dtype=complex)
            for wi in word:
                acc = acc @ g.generators[wi]
            assert np.allclose(acc, g.elements[idx], atol=1e-12)


def cyclic_generator(n):
    return np.diag([np.exp(2j * np.pi / n), 1.0])


class TestClosureCache:
    """unitary_closure keeps one closed group per (generator stack, cap)."""

    def test_equal_generators_share_one_group(self, monkeypatch):
        a = [[0.0, 1.0], [-1.0, 0.0]]
        b = [[1j, 0.0], [0.0, -1j]]
        group = unitary_closure([np.array(a), np.array(b)])
        checked = []
        monkeypatch.setattr(unitary, "_check_unitary", checked.append)
        assert unitary_closure((np.array(a, dtype=complex), np.array(b))) is group
        assert unitary_closure((a, b)) is group
        assert unitary_closure(np.array([a, b])) is group
        assert checked == []  # a kept stack passed the check with the same bytes

    def test_another_cap_is_another_entry(self):
        gens = [cyclic_generator(10)]
        group = unitary_closure(gens, cap=64)
        other = unitary_closure(gens, cap=65)
        assert other is not group
        assert unitary_closure(gens, cap=65) is other and unitary_closure(gens, cap=64) is group
        assert other.elements.tobytes() == group.elements.tobytes()

    def test_failures_are_closed_again_and_never_kept(self):
        closed = unitary._closed_group.cache_info
        failing = [(_NAMED_GENERATORS["q8"], len(unitary_group("q8")) - 1, GroupNotClosedError),
                   ([np.array([[2.0, 0], [0, 1.0]])], 256, ValueError)]
        for gens, cap, error in failing:
            for _ in range(2):
                before = closed()
                with pytest.raises(error):
                    unitary_closure(gens, cap=cap)
                after = closed()  # checked and closed again, and nothing kept
                assert (after.misses, after.currsize) == (before.misses + 1, before.currsize)

    def test_the_bound_is_a_module_constant(self):
        assert unitary._closed_group.cache_info().maxsize == unitary._CLOSED_GROUPS
        first = unitary_closure([cyclic_generator(3)])
        kept = [unitary_closure([cyclic_generator(n)]) for n in range(4, 4 + unitary._CLOSED_GROUPS)]
        assert unitary._closed_group.cache_info().currsize == unitary._CLOSED_GROUPS
        assert unitary_closure([cyclic_generator(4 + unitary._CLOSED_GROUPS - 1)]) is kept[-1]
        again = unitary_closure([cyclic_generator(3)])  # the oldest entry went first
        assert again is not first
        assert again.elements.tobytes() == first.elements.tobytes()

    @pytest.mark.parametrize("name", sorted(_NAMED_GENERATORS))
    def test_named_groups_are_the_kept_closures(self, name):
        assert unitary_group(name) is unitary_closure(_NAMED_GENERATORS[name], cap=64)


class TestNormingSet:
    def test_sizes(self, named_groups):
        assert len(basis_orbit_norming_set(named_groups["q8"])) == 8
        assert len(basis_orbit_norming_set(named_groups["s3"])) == 3
        assert len(basis_orbit_norming_set(named_groups["c12"])) == 24

    def test_spans(self, named_groups):
        for g in named_groups.values():
            vecs = basis_orbit_norming_set(g)
            assert np.linalg.matrix_rank(vecs) == g.d

    def test_unit_vectors(self, named_groups):
        for g in named_groups.values():
            vecs = basis_orbit_norming_set(g)
            assert np.allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-12)

    def test_stable_under_group(self, named_groups):
        for g in named_groups.values():
            norming = basis_orbit_norming_set(g)
            for mat in g.elements:
                sigma = tilde_permutation(norming, mat)
                assert sorted(sigma) == list(range(len(norming)))
                # defining property: gamma_{sigma(i)} = g^H gamma_i
                assert np.allclose(
                    norming[sigma], norming @ mat.conj(), atol=1e-10
                )


class TestEmbedding:
    def test_left_multiplication_is_row_permutation(self, named_groups, rng):
        for g in named_groups.values():
            norming = basis_orbit_norming_set(g)
            a = random_matrix(rng, g.d)
            for mat in g.elements:
                sigma = tilde_permutation(norming, mat)
                lhs = embed(norming, mat @ a)
                rhs = embed(norming, a)[sigma]
                assert np.allclose(lhs, rhs, atol=1e-10)

    def test_right_multiplication_is_matrix_action(self, named_groups, rng):
        g = named_groups["q8"]
        norming = basis_orbit_norming_set(g)
        a = random_matrix(rng, g.d)
        for mat in g.elements:
            assert np.allclose(
                embed(norming, a @ mat), embed(norming, a) @ mat, atol=1e-10
            )

    def test_injective(self, named_groups, rng):
        """E(a) determines a because the norming vectors span."""
        g = named_groups["c12"]
        norming = basis_orbit_norming_set(g)
        a = random_matrix(rng, g.d)
        recovered, *_ = np.linalg.lstsq(
            norming.conj(), embed(norming, a), rcond=None
        )
        assert np.allclose(recovered, a, atol=1e-10)

    def test_tilde_permutations_form_antirepresentation(self, named_groups):
        """sigma_{gh} = sigma_h after sigma_g, equivalently P_{gh} = P_g P_h."""
        g = named_groups["s3"]
        norming = basis_orbit_norming_set(g)
        sigmas = [tilde_permutation(norming, m) for m in g.elements]
        for i in range(len(g)):
            for j in range(len(g)):
                p_ij = perm_matrix(sigmas[g.cayley[i, j]])
                assert np.allclose(
                    p_ij, perm_matrix(sigmas[i]) @ perm_matrix(sigmas[j]), atol=1e-12
                )


class TestRealification:
    def test_matrix_vector_compatible(self, rng):
        for _ in range(20):
            b = random_matrix(rng, 3)
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            bv = b @ v
            assert np.allclose(
                realify_matrix(b) @ np.concatenate([v.real, v.imag]),
                np.concatenate([bv.real, bv.imag]),
                atol=1e-12,
            )

    def test_unitary_becomes_orthogonal(self, named_groups):
        for mat in named_groups["c12"].elements:
            r = realify_matrix(mat)
            assert np.allclose(r.T @ r, np.eye(4), atol=1e-12)

    def test_multiplicative(self, rng):
        a, b = random_matrix(rng, 2), random_matrix(rng, 2)
        assert np.allclose(realify_matrix(a @ b), realify_matrix(a) @ realify_matrix(b), atol=1e-12)
