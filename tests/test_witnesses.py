"""Witness solver tests.

The recovered d x d witness is always validated against the defining
commutator identity with plain matrix arithmetic; no test trusts the
model plumbing it is checking.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from test_groups import compose
from test_isometries import apply

from supfix import unitary
from supfix.cocycles import DerivationData, inner_derivation, translation_cocycle
from supfix.errors import SpaceMismatchError
from supfix.instances import (
    cayley_group,
    corrupt_cocycle_table,
    corrupt_derivation,
    random_inner_derivation,
    random_translation_cocycle,
)
from supfix.iterate import fixed_point_residual
from supfix.spaces import SupPoint, sup_distance
from supfix.unitary import basis_orbit_norming_set, embed, model_frame, unitary_closure
from supfix.witnesses import (
    WITNESS_METHODS,
    build_affine_action,
    build_similarity,
    finite_group_algebra_witness,
    model_residual,
    recover_witness,
    solve_witness,
    witness_residual,
)

GROUP_NAMES = ("q8", "s3", "c12")


def encode(m_mat):
    """The model point of a (size, d) complex matrix; inverse of model.decode."""
    m_mat = np.asarray(m_mat, dtype=complex)
    return SupPoint(np.concatenate([m_mat.real, m_mat.imag], axis=1))


class TestAffineActionModel:
    @pytest.mark.parametrize("name", GROUP_NAMES)
    def test_orbit_of_origin_matches_targets(self, named_groups, name, elements):
        """Applying element l to the origin must decode to E(delta(g_l)) g_l^H;
        this pins the realification and translation wiring."""
        group = named_groups[name]
        data, _ = random_inner_derivation(group, 3)
        model = build_affine_action(data)
        origin = model.origin()
        for l, iso in enumerate(elements(model.group_spec)):
            decoded = model.decode(apply(iso, origin))
            assert np.allclose(decoded, model.targets[l], atol=1e-12)

    @pytest.mark.parametrize("name", GROUP_NAMES)
    def test_action_is_homomorphism(self, named_groups, name, rng, elements):
        group = named_groups[name]
        data, _ = random_inner_derivation(group, 4)
        model = build_affine_action(data)
        isos = elements(model.group_spec)
        x = encode(
            rng.standard_normal((model.size, model.d))
            + 1j * rng.standard_normal((model.size, model.d))
        )
        for i in range(len(group)):
            for j in range(len(group)):
                lhs = apply(compose(isos[i], isos[j]), x)
                rhs = apply(isos[group.cayley[i, j]], x)
                assert sup_distance(lhs, rhs) <= 1e-10

    def test_encode_decode_round_trip(self, named_groups, rng):
        data, _ = random_inner_derivation(named_groups["q8"], 1)
        model = build_affine_action(data)
        m = rng.standard_normal((model.size, model.d)) + 1j * rng.standard_normal(
            (model.size, model.d)
        )
        assert np.allclose(model.decode(encode(m)), m)

    def test_model_solutions_are_fixed_points(self, named_groups):
        """T solves the model system iff encode(T) is fixed by every element."""
        group = named_groups["s3"]
        data, _ = random_inner_derivation(group, 6)
        model = build_affine_action(data)
        rep = solve_witness(data, method="least_squares")
        point = encode(rep.t_model)
        assert fixed_point_residual(model.group_spec, point) <= 1e-10


class TestAffineActionChecks:
    """The model frame is checked once, as a stack; it must refuse what the
    checking FiberPermIsometry constructor refuses."""

    def test_non_orthogonal_maps_refused(self, named_groups):
        group = named_groups["q8"]
        scaled = dataclasses.replace(group, elements=1.001 * group.elements)
        with pytest.raises(ValueError, match="orthogonal"):
            model_frame(scaled)
        model_frame(group)


class TestModelFrame:
    """A group builds its frame once and keeps it."""

    def test_default_frame_built_once_per_group(self, named_groups, monkeypatch):
        built = []

        def counting(group):
            built.append(group)
            return basis_orbit_norming_set(group)

        monkeypatch.setattr(unitary, "basis_orbit_norming_set", counting)
        unitary._closed_group.cache_clear()  # a group closed afresh, nothing cached on it
        group = unitary_closure(named_groups["s3"].generators)
        for seed in (1, 2):
            data, _ = random_inner_derivation(group, seed)
            assert not solve_witness(data).flagged
        assert built == [group]
        assert build_affine_action(data).frame is group.frame
        assert built == [group]

    def test_frame_arrays_are_read_only(self, named_groups):
        frame = named_groups["c12"].frame
        for arr in (frame.norming, frame.sigmas, frame.maps, frame.j_mat, frame.j_pinv):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]


class TestSolveWitness:
    @pytest.mark.parametrize("name", GROUP_NAMES)
    @pytest.mark.parametrize("method", WITNESS_METHODS)
    def test_valid_inner_derivations_solved(self, named_groups, name, method):
        group = named_groups[name]
        for seed in range(5):
            data, _ = random_inner_derivation(group, seed)
            rep = solve_witness(data, method=method)
            assert not rep.flagged
            assert rep.model_residual <= 1e-10
            assert rep.witness_residual <= 1e-10

    @pytest.mark.parametrize("repeat", ["same_twice", "identity_first"])
    @pytest.mark.parametrize("method", WITNESS_METHODS)
    def test_repeated_generators(self, repeat, method):
        """A generator equal to the identity or to an earlier generator has no
        one-letter word; every method still solves, and the similarity holds."""
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])  # order 4
        gens = (a, a) if repeat == "same_twice" else (np.eye(2), a)
        group = unitary_closure(gens)
        assert len(group) == 4
        data, _ = random_inner_derivation(group, 3)
        rep = solve_witness(data, method=method)
        assert not rep.flagged
        assert rep.model_residual <= 1e-10 and rep.witness_residual <= 1e-10
        sim = build_similarity(build_affine_action(data), rep.t_model)
        assert sim.intertwine_residual <= 1e-9
        assert sim.left_inverse_residual <= 1e-9
        assert sim.homomorphism_residual <= 1e-9

    @pytest.mark.parametrize("name", GROUP_NAMES)
    def test_recovered_witness_satisfies_commutator_identity(self, named_groups, name):
        """Plain-loop oracle on the defining identity, independent of the
        residual helpers."""
        group = named_groups[name]
        data, _ = random_inner_derivation(group, 9)
        rep = solve_witness(data, method="least_squares")
        for l in range(len(group)):
            g = group.elements[l]
            defect = rep.t0 @ g - g @ rep.t0 - data.values[l]
            assert np.abs(defect).max() <= 1e-9

    def test_methods_may_differ_but_residuals_agree(self, named_groups):
        """Witnesses are unique only up to the commutant, so solutions are
        compared through residuals, never entrywise."""
        group = named_groups["q8"]
        data, _ = random_inner_derivation(group, 12)
        reports = [solve_witness(data, method=m) for m in WITNESS_METHODS]
        for rep in reports:
            assert rep.witness_residual <= 1e-10

    @pytest.mark.parametrize("method", WITNESS_METHODS)
    def test_corrupted_data_flagged_by_every_method(self, named_groups, method):
        group = named_groups["s3"]
        data, _ = random_inner_derivation(group, 2)
        bad = corrupt_derivation(data, 5)
        rep = solve_witness(bad, method=method)
        assert rep.flagged
        assert rep.model_residual > 1e-6
        assert rep.flag_reason is not None

    def test_least_squares_is_decision_oracle(self, named_groups):
        """Accept/reject agreement between the fixed-point routes and the
        plain linear-algebra route, across valid and corrupted instances."""
        group = named_groups["c12"]
        for seed in range(4):
            data, _ = random_inner_derivation(group, seed)
            verdicts = {m: solve_witness(data, method=m).flagged for m in WITNESS_METHODS}
            assert set(verdicts.values()) == {False}
            bad = corrupt_derivation(data, seed + 100)
            verdicts = {m: solve_witness(bad, method=m).flagged for m in WITNESS_METHODS}
            assert set(verdicts.values()) == {True}

    def test_zero_cocycle_gives_central_witness(self, named_groups):
        """delta = 0 is inner with t0 = 0; the minimum-norm solution is 0."""
        group = named_groups["q8"]
        data = inner_derivation(group, np.zeros((2, 2)))
        rep = solve_witness(data, method="least_squares")
        assert np.abs(rep.t_model).max() <= 1e-12
        assert np.abs(rep.t0).max() <= 1e-10

    def test_unknown_method_rejected(self, named_groups):
        data, _ = random_inner_derivation(named_groups["q8"], 0)
        with pytest.raises(ValueError):
            solve_witness(data, method="magic")

    def test_report_serializes(self, named_groups):
        import json

        data, _ = random_inner_derivation(named_groups["s3"], 1)
        rep = solve_witness(data)
        encoded = json.dumps(rep.as_dict(), sort_keys=True)
        assert "witness_residual" in encoded


class TestRecovery:
    def test_projection_intertwines(self, named_groups, rng):
        """J^+ E(a) = a for any matrix, the key identity behind recovery."""
        group = named_groups["c12"]
        data, _ = random_inner_derivation(group, 3)
        model = build_affine_action(data)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        recovered = recover_witness(model, embed(model.frame.norming, a))
        assert np.allclose(recovered, a, atol=1e-10)

    def test_model_residual_of_true_embedding_zero(self, named_groups, rng):
        group = named_groups["q8"]
        t0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        data = inner_derivation(group, t0)
        model = build_affine_action(data)
        t_mat = embed(model.frame.norming, t0)
        assert model_residual(model, t_mat) <= 1e-12
        assert witness_residual(data, t0) <= 1e-12


class TestSimilarity:
    @pytest.mark.parametrize("name", GROUP_NAMES)
    def test_identities(self, named_groups, name):
        group = named_groups[name]
        data, _ = random_inner_derivation(group, 6)
        model = build_affine_action(data)
        rep = solve_witness(data)
        sim = build_similarity(model, rep.t_model)
        assert sim.intertwine_residual <= 1e-9
        assert sim.left_inverse_residual <= 1e-9
        assert sim.homomorphism_residual <= 1e-9
        assert sim.s_norm >= 1.0 and sim.s_left_inv_norm > 0.0

    @pytest.mark.parametrize("name", GROUP_NAMES)
    def test_norms_are_the_floats_of_the_2_norm(self, named_groups, name):
        """s_norm and s_left_inv_norm are the floats np.linalg.norm(x, 2)
        gives, for the least-squares solution and for an arbitrary T."""
        rng = np.random.default_rng(len(name))
        for seed in range(10):
            data, _ = random_inner_derivation(named_groups[name], seed)
            model = build_affine_action(data)
            arbitrary = rng.standard_normal((model.size, model.d))
            for t in (solve_witness(data, method="least_squares").t_model, arbitrary):
                sim = build_similarity(model, t)
                assert sim.s_norm == float(np.linalg.norm(sim.s_mat, 2))
                assert sim.s_left_inv_norm == float(np.linalg.norm(sim.s_left_inv, 2))

    def test_block_shapes(self, named_groups):
        group = named_groups["s3"]
        data, _ = random_inner_derivation(group, 1)
        model = build_affine_action(data)
        rep = solve_witness(data)
        sim = build_similarity(model, rep.t_model)
        size, d = model.size, model.d
        assert sim.s_mat.shape == (2 * size, 2 * d)
        assert sim.s_left_inv.shape == (2 * d, 2 * size)

    def test_intertwine_fails_for_wrong_t(self, named_groups, rng):
        """With a non-solution plugged in, the identity must visibly break;
        this guards against a vacuous check."""
        group = named_groups["q8"]
        data, _ = random_inner_derivation(group, 8)
        model = build_affine_action(data)
        wrong = rng.standard_normal((model.size, model.d))
        sim = build_similarity(model, wrong)
        assert sim.intertwine_residual > 1e-3

    def test_wrong_shape_refused(self, named_groups):
        data, _ = random_inner_derivation(named_groups["q8"], 2)
        model = build_affine_action(data)
        for shape in ((model.d,), (1, model.d), (model.size, model.d + 1)):
            with pytest.raises(SpaceMismatchError):
                build_similarity(model, np.zeros(shape))


class TestGroupAlgebra:
    @pytest.mark.parametrize("name", ["cyclic:6", "symmetric:3"])
    def test_valid_cocycles_witnessed(self, name):
        group = cayley_group(name)
        for seed in range(8):
            c, _ = random_translation_cocycle(group, seed)
            rep = finite_group_algebra_witness(group, c)
            assert not rep.flagged
            assert rep.residual <= 1e-12
            assert rep.law_defect <= 1e-12

    def test_witness_identity_brute_force(self):
        group = cayley_group("symmetric:3")
        c, _ = random_translation_cocycle(group, 3)
        rep = finite_group_algebra_witness(group, c)
        t = rep.t_witness
        n = len(group)
        for g, s in itertools.product(range(n), repeat=2):
            assert c[g, s] == pytest.approx(
                t[group.table[g, s]] - t[group.table[s, g]], abs=1e-10
            )

    def test_recovered_witness_mean_zero(self):
        group = cayley_group("symmetric:3")
        c, _ = random_translation_cocycle(group, 7)
        rep = finite_group_algebra_witness(group, c)
        assert abs(rep.t_witness.mean()) <= 1e-12

    def test_matches_true_generator_up_to_class_function(self):
        """Solutions differ by functions constant on conjugacy classes, so
        compare c tables, not t vectors."""
        group = cayley_group("symmetric:3")
        c, t_true = random_translation_cocycle(group, 11)
        rep = finite_group_algebra_witness(group, c)
        rebuilt = translation_cocycle(group, rep.t_witness)
        assert np.allclose(rebuilt, c, atol=1e-10)

    def test_corrupted_flagged(self):
        group = cayley_group("symmetric:3")
        c, _ = random_translation_cocycle(group, 2)
        bad = corrupt_cocycle_table(c, 3)
        rep = finite_group_algebra_witness(group, bad)
        assert rep.flagged
        assert rep.residual > 1e-6

    def test_abelian_case_trivial_but_sound(self):
        group = cayley_group("cyclic:6")
        c, _ = random_translation_cocycle(group, 1)
        rep = finite_group_algebra_witness(group, c)
        assert np.abs(c).max() == 0.0
        assert rep.residual == 0.0
        bad = corrupt_cocycle_table(c, 2)
        assert finite_group_algebra_witness(group, bad).flagged


class TestNaNData:
    """A NaN in the data gives a NaN residual, and a NaN residual is flagged."""

    @pytest.fixture()
    def nan_data(self, named_groups):
        data, _ = random_inner_derivation(named_groups["q8"], 1)
        values = data.values.copy()
        values[3, 0, 1] = np.nan
        return DerivationData(data.group, values)

    @pytest.mark.parametrize("method", ["averaging", "least_squares", "orbit_center"])
    def test_solvers_flag_nan_values(self, nan_data, method):
        rep = solve_witness(nan_data, method=method)
        assert np.isnan(rep.model_residual)
        assert rep.flagged
        if method == "orbit_center":
            assert np.isnan(rep.fixed_point_residual)

    def test_model_residual_propagates_nan(self, nan_data):
        model = build_affine_action(nan_data)
        assert np.isnan(model_residual(model, np.zeros((model.size, model.d))))

    def test_similarity_residuals_propagate_nan(self, nan_data):
        model = build_affine_action(nan_data)
        sim = build_similarity(model, np.zeros((model.size, model.d)))
        assert np.isnan(sim.intertwine_residual)
        assert np.isnan(sim.homomorphism_residual)

    def test_group_algebra_flags_nan_table(self):
        group = cayley_group("cyclic:6")
        c, _ = random_translation_cocycle(group, 1)
        c[2, 3] = np.nan
        rep = finite_group_algebra_witness(group, c)
        assert np.isnan(rep.residual) and np.isnan(rep.law_defect)
        assert rep.flagged


class TestInfiniteData:
    """An infinite value flags the report as a NaN does, and no step warns
    (the suite turns RuntimeWarning into an error)."""

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize("method", WITNESS_METHODS)
    def test_solvers_flag_infinite_values(self, named_groups, method, bad):
        data, _ = random_inner_derivation(named_groups["q8"], 1)
        values = data.values.copy()
        values[3, 0, 1] = bad
        rep = solve_witness(DerivationData(data.group, values), method=method)
        assert rep.flagged and not np.isfinite(rep.model_residual)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["symmetric:3", "cyclic:6"])
    def test_group_algebra_flags_infinite_table(self, name, bad):
        group = cayley_group(name)
        c, _ = random_translation_cocycle(group, 1)
        c[2, 3] = bad
        rep = finite_group_algebra_witness(group, c)
        assert rep.flagged and not np.isfinite(rep.residual)
