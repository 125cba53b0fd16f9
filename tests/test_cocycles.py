"""Cocycle law, extension along group words, and the abstract group tables."""

import itertools
import warnings

import numpy as np
import pytest
from test_groups import row_translation_law_worst_pair, unitary_index

from supfix.cocycles import (
    LAW_TOL,
    CayleyGroup,
    DerivationData,
    check_cocycle,
    check_translation_cocycle,
    cocycle_defect,
    inner_derivation,
    translation_cocycle,
    translation_law_worst_pair,
)
from supfix.errors import CocycleInconsistencyError, SpaceMismatchError
from supfix.instances import (
    cayley_group,
    corrupt_cocycle_table,
    corrupt_derivation,
    random_inner_derivation,
    random_translation_cocycle,
)


class TestMatrixCocycles:
    @pytest.mark.parametrize("name", ["q8", "s3", "c12"])
    def test_inner_derivations_obey_the_law(self, named_groups, name, rng):
        group = named_groups[name]
        t0 = rng.standard_normal((group.d, group.d)) + 1j * rng.standard_normal(
            (group.d, group.d)
        )
        data = inner_derivation(group, t0)
        assert cocycle_defect(data)[0] <= 1e-12

    def test_law_brute_force_small(self, named_groups):
        """Recompute the defect with plain loops as an oracle."""
        group = named_groups["s3"]
        data, _ = random_inner_derivation(group, 5)
        worst = 0.0
        for i in range(len(group)):
            for j in range(len(group)):
                prod = group.elements[i] @ group.elements[j]
                idx = unitary_index(group, prod)
                expect = data.values[i] @ group.elements[j] + group.elements[i] @ data.values[j]
                worst = max(worst, float(np.abs(data.values[idx] - expect).max()))
        assert cocycle_defect(data)[0] == pytest.approx(worst, abs=1e-15)

    def test_identity_value_forced_zero(self, named_groups):
        data, _ = random_inner_derivation(named_groups["q8"], 3)
        assert np.abs(data.values[0]).max() <= 1e-12

    @pytest.mark.parametrize("name", ["q8", "s3", "c12"])
    def test_extension_recovers_inner_derivation(self, named_groups, name):
        """Extending the generator values along the closure's BFS parents by
        the law, delta(u g) = delta(u) g + u delta(g), must reproduce the
        full inner derivation; generator g's value sits at right[0, g]."""
        group = named_groups[name]
        data, _ = random_inner_derivation(group, 11)
        gen_vals = data.values[group.right[0]]
        extended = np.zeros_like(data.values)
        for idx in range(1, len(group)):
            parent, gi = group.parents[idx]
            extended[idx] = (extended[parent] @ group.generators[gi]
                             + group.elements[parent] @ gen_vals[gi])
        assert np.allclose(extended, data.values, atol=1e-10)

    def test_corrupted_generator_values_fail_check(self, named_groups, rng):
        group = named_groups["s3"]
        data, _ = random_inner_derivation(group, 2)
        values = data.values.copy()
        g0 = group.right[0, 0]
        values[g0] += 1e-2 * rng.standard_normal(values[g0].shape)
        with pytest.raises(CocycleInconsistencyError):
            check_cocycle(DerivationData(group, values))

    def test_unchecked_extension_returns_data(self, named_groups, rng):
        """At tol=inf, the runner's unchecked setting, the defect is returned."""
        group = named_groups["s3"]
        data, _ = random_inner_derivation(group, 2)
        values = data.values.copy()
        g0 = group.right[0, 0]
        values[g0] += 1e-2 * rng.standard_normal(values[g0].shape)
        defect = check_cocycle(DerivationData(group, values), tol=np.inf)
        assert defect == cocycle_defect(DerivationData(group, values))[0] > 1e-4

    def test_error_message_names_pair_and_defect(self, named_groups):
        group = named_groups["q8"]
        data, _ = random_inner_derivation(group, 7)
        bad = corrupt_derivation(data, 1)
        with pytest.raises(CocycleInconsistencyError) as info:
            check_cocycle(bad)
        message = str(info.value)
        assert "defect" in message
        assert any(lbl in message for lbl in group.labels if lbl != "e")

    def test_shape_validation(self, named_groups):
        group = named_groups["q8"]
        with pytest.raises(SpaceMismatchError):
            DerivationData(group, np.zeros((1, 2, 2)))


class TestCayleyGroup:
    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_cyclic_structure(self, n):
        g = CayleyGroup.cyclic(n)
        assert len(g) == n
        for i in range(n):
            assert g.table[i, g.inverse[i]] == 0

    def test_symmetric_three_order_six(self):
        assert len(CayleyGroup.symmetric(3)) == 6

    @pytest.mark.parametrize("make", [lambda: CayleyGroup.cyclic(6), lambda: CayleyGroup.symmetric(3)])
    def test_associativity_brute_force(self, make):
        g = make()
        n = len(g)
        for a, b, c in itertools.product(range(n), repeat=3):
            assert g.table[g.table[a, b], c] == g.table[a, g.table[b, c]]

    def test_symmetric_table_matches_composition(self):
        g = CayleyGroup.symmetric(3)
        perms = list(itertools.permutations(range(3)))
        for i, p in enumerate(perms):
            for j, q in enumerate(perms):
                composed = tuple(p[q[x]] for x in range(3))
                assert perms[g.table[i, j]] == composed

    def test_identity_must_be_index_zero(self):
        with pytest.raises(ValueError):
            CayleyGroup(("a", "b"), np.array([[1, 0], [0, 1]]))

    def test_a_group_with_no_elements_is_refused(self):
        with pytest.raises(ValueError, match="at least one element"):
            CayleyGroup((), np.zeros((0, 0), dtype=int))

    @pytest.mark.parametrize("table", [
        [[0, 1, 2], [1, 1, 1], [2, 1, 0]],  # a has no inverse
        [[0, 1, 2], [1, 2, 0], [2, 1, 0]],  # every row a permutation, column 1 not
    ])
    def test_rows_and_columns_must_be_permutations(self, table):
        with pytest.raises(ValueError, match="permutation of the elements"):
            CayleyGroup(("e", "a", "b"), table)

    def test_the_callers_table_is_copied_not_frozen(self):
        table = np.array(CayleyGroup.cyclic(4).table)
        group = CayleyGroup(("e", "a", "b", "c"), table)
        assert group.table is not table
        assert table.flags.writeable and not group.table.flags.writeable
        table[1, 1] = 0
        assert group.table[1, 1] == 2


class TestTranslationCocycles:
    @pytest.mark.parametrize("name", ["cyclic:6", "symmetric:3"])
    def test_law_holds_for_translation_form(self, name, rng):
        from supfix.instances import cayley_group

        g = cayley_group(name)
        t = rng.standard_normal(len(g))
        c = translation_cocycle(g, t)
        assert translation_law_worst_pair(g, c)[0] <= 1e-12

    def test_abelian_groups_have_zero_cocycles(self):
        g = CayleyGroup.cyclic(6)
        c, _ = random_translation_cocycle(g, 9)
        assert np.abs(c).max() == 0.0

    def test_nonabelian_cocycles_nontrivial(self):
        g = CayleyGroup.symmetric(3)
        c, _ = random_translation_cocycle(g, 9)
        assert np.abs(c).max() > 1e-3

    def test_corruption_detected_with_pair(self):
        g = CayleyGroup.symmetric(3)
        c, _ = random_translation_cocycle(g, 4)
        bad = corrupt_cocycle_table(c, 8)
        defect, i, j = translation_law_worst_pair(g, bad)
        assert defect > 1e-4
        assert 0 <= i < len(g) and 0 <= j < len(g)

    def test_check_names_the_worst_pair(self):
        g = CayleyGroup.symmetric(3)
        c, _ = random_translation_cocycle(g, 4)
        assert check_translation_cocycle(g, c) == translation_law_worst_pair(g, c)[0] <= LAW_TOL
        bad = corrupt_cocycle_table(c, 9)
        defect, i, j = translation_law_worst_pair(g, bad)
        assert i != j
        with pytest.raises(CocycleInconsistencyError) as info:
            check_translation_cocycle(g, bad)
        assert (info.value.label_a, info.value.label_b, info.value.defect) == (g.labels[i], g.labels[j], defect)
        assert check_translation_cocycle(g, bad, tol=defect) == defect
        with pytest.raises(CocycleInconsistencyError):
            check_translation_cocycle(g, bad, tol=np.nextafter(defect, 0.0))

    def test_law_brute_force_oracle(self):
        g = CayleyGroup.symmetric(3)
        c, _ = random_translation_cocycle(g, 13)
        bad = corrupt_cocycle_table(c, 14)
        n = len(g)
        worst = 0.0
        for gg, h, s in itertools.product(range(n), repeat=3):
            lhs = bad[g.table[gg, h], s]
            rhs = bad[gg, g.table[h, s]] + bad[h, g.table[s, gg]]
            worst = max(worst, abs(lhs - rhs))
        assert translation_law_worst_pair(g, bad)[0] == pytest.approx(worst, abs=1e-15)


class TestNaNData:
    """NaN is never within a tolerance: it must reach the decision, not be skipped.
    An infinite value reaches it too, as a NaN or inf defect, with no warning."""

    def test_nan_cocycle_value_fails_the_check(self, named_groups):
        data, _ = random_inner_derivation(named_groups["q8"], 1)
        values = data.values.copy()
        values[3, 0, 1] = np.nan
        bad = DerivationData(data.group, values)
        assert np.isnan(cocycle_defect(bad)[0])
        for tol in (1e-8, np.inf):
            with pytest.raises(CocycleInconsistencyError, match="defect nan"):
                check_cocycle(bad, tol)

    def test_nan_table_entry_reaches_the_worst_pair(self):
        group = cayley_group("cyclic:6")
        c, _ = random_translation_cocycle(group, 1)
        c[2, 3] = np.nan
        assert np.isnan(translation_law_worst_pair(group, c)[0])
        for tol in (LAW_TOL, np.inf):
            with pytest.raises(CocycleInconsistencyError, match="defect nan"):
                check_translation_cocycle(group, c, tol)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_cocycle_value_fails_the_check(self, named_groups, value):
        """No warning, and the pair named is the worst, first in row-major order."""
        data, _ = random_inner_derivation(named_groups["q8"], 1)
        values = data.values.copy()
        values[3, 0, 1] = value
        bad = DerivationData(data.group, values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            defect, i, j = cocycle_defect(bad)
            with pytest.raises(CocycleInconsistencyError) as info:
                check_cocycle(bad)
        assert not np.isfinite(defect)
        labels = bad.group.labels
        assert (info.value.label_a, info.value.label_b) == (labels[i], labels[j])
        elems = bad.group.elements
        with np.errstate(invalid="ignore"):
            pairs = np.array([[np.abs(values[bad.group.cayley[a, b]]
                                      - (values[a] @ elems[b] + elems[a] @ values[b])).max()
                               for b in range(len(elems))] for a in range(len(elems))])
        assert (i, j) == np.unravel_index(np.argmax(pairs), pairs.shape)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_table_entry_fails_the_check(self, value):
        group = cayley_group("symmetric:3")
        c, _ = random_translation_cocycle(group, 1)
        c[2, 3] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            defect, g, h = translation_law_worst_pair(group, c)
            with pytest.raises(CocycleInconsistencyError) as info:
                check_translation_cocycle(group, c)
        assert not np.isfinite(defect)
        assert (info.value.label_a, info.value.label_b) == (group.labels[g], group.labels[h])
        with np.errstate(invalid="ignore"):
            assert (g, h) == row_translation_law_worst_pair(group, c)[1:]
