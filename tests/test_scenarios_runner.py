"""Scenario validation and runner behavior, including the exit-code contract."""

import json
import time

import jsonschema
import numpy as np
import pytest

from supfix import runner
from supfix.errors import (
    EmptyDomainError,
    GroupNotClosedError,
    ScenarioFormatError,
    SpaceMismatchError,
)
from supfix.runner import (
    EXIT_FLAGGED,
    EXIT_FORMAT,
    EXIT_INCONSISTENT,
    EXIT_OK,
    canonical_result_bytes,
    run_scenario,
    run_suite,
)
from supfix.scenarios import (
    SCENARIO_DEFAULTS,
    SCENARIO_SCHEMAS,
    validate_scenario,
    validate_suite,
)

OUT_OF_RANGE_GROUPS = ["symmetric:9", "cyclic:0", "cyclic:513", "symmetric:0", "cyclic:" + "9" * 5000]


class TestValidation:
    def test_defaults_filled(self):
        got = validate_scenario({"kind": "box_fixed_point", "seed": 1})
        assert got["dim"] == 8 and got["max_order"] == 48 and got["tol"] == 1e-10

    def test_explicit_values_kept(self):
        got = validate_scenario({"kind": "box_fixed_point", "seed": 1, "dim": 4})
        assert got["dim"] == 4

    @pytest.mark.parametrize(
        "bad",
        [
            42,
            {"seed": 1},
            {"kind": "nope", "seed": 1},
            {"kind": "box_fixed_point"},
            {"kind": "box_fixed_point", "seed": -1},
            {"kind": "box_fixed_point", "seed": 1, "dim": 0},
            {"kind": "box_fixed_point", "seed": 1, "bogus": True},
            {"kind": "box_fixed_point", "seed": 1, "tol": 0.0},
            {"kind": "matrix_derivation", "seed": 1, "group": "su2"},
            {"kind": "matrix_derivation", "seed": 1},
            {"kind": "matrix_derivation", "seed": 1, "group": "q8", "method": "newton"},
            {"kind": "group_algebra_derivation", "seed": 1, "group": "dihedral:3"},
            {"kind": "urns_certificate", "seed": 1, "constant": 1.5},
            {"kind": "urns_certificate", "seed": 1, "points": 1},
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(ScenarioFormatError):
            validate_scenario(bad)

    def test_sample_box_oriented_bounds(self):
        base = {"kind": "box_fixed_point", "seed": 1, "dim": 2}
        ok = validate_scenario({**base, "sample_box": {"lo": [0, 0], "hi": [1, 1]}})
        assert ok["sample_box"]["hi"] == [1, 1]
        with pytest.raises(ScenarioFormatError, match="lo=0 > hi=-1"):
            validate_scenario({**base, "sample_box": {"lo": [0, 0], "hi": [-1, 1]}})
        with pytest.raises(ScenarioFormatError, match="same length"):
            validate_scenario({**base, "sample_box": {"lo": [0], "hi": [1, 2]}})
        with pytest.raises(ScenarioFormatError, match="dim"):
            validate_scenario({**base, "sample_box": {"lo": [0, 0, 0], "hi": [1, 1, 1]}})

    def test_suite_shapes(self):
        one = {"kind": "box_fixed_point", "seed": 0}
        assert len(validate_suite([one, one])) == 2
        assert len(validate_suite({"scenarios": [one]})) == 1
        for bad in ([], {"nope": []}, "x"):
            with pytest.raises(ScenarioFormatError):
                validate_suite(bad)

    @pytest.mark.parametrize("kind", sorted(SCENARIO_SCHEMAS))
    def test_schemas_are_valid(self, kind):
        schema = SCENARIO_SCHEMAS[kind]
        jsonschema.validators.validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "box_fixed_point", "seed": 1, "dim": 0, "tol": -1},
            {"kind": "box_fixed_point", "seed": 1, "sample_box": {"lo": ["x"], "hi": [3.0]}},
            {"kind": "matrix_derivation", "seed": 1.5, "group": "su2"},
            {"kind": "group_algebra_derivation", "seed": 1, "group": "dihedral:3", "x": 1},
            {"kind": "urns_certificate", "seed": 1, "constant": 1.5, "points": 1},
        ],
    )
    def test_messages_match_jsonschema_validate(self, bad):
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(bad, SCENARIO_SCHEMAS[bad["kind"]])
        with pytest.raises(ScenarioFormatError) as got:
            validate_scenario(bad)
        assert str(got.value) == f"invalid {bad['kind']} scenario: {want.value.message}"

    @pytest.mark.parametrize(
        "group", ["cyclic:1", "cyclic:512", "cyclic:0007", "symmetric:1", "symmetric:5"]
    )
    def test_group_sizes_in_range_accepted(self, group):
        scenario = {"kind": "group_algebra_derivation", "seed": 1, "group": group}
        assert validate_scenario(scenario)["group"] == group

    @pytest.mark.parametrize("group", OUT_OF_RANGE_GROUPS)
    def test_group_sizes_out_of_range_rejected(self, group):
        scenario = {"kind": "group_algebra_derivation", "seed": 1, "group": group}
        with pytest.raises(ScenarioFormatError, match="out of range"):
            validate_scenario(scenario)

    def test_every_kind_has_defaults(self):
        for kind, defaults in SCENARIO_DEFAULTS.items():
            assert isinstance(defaults, dict)


class TestRunnerExitCodes:
    def test_ok_paths(self):
        for sc in (
            {"kind": "box_fixed_point", "seed": 3},
            {"kind": "fiber_fixed_point", "seed": 3},
            {"kind": "matrix_derivation", "seed": 3, "group": "q8"},
            {"kind": "group_algebra_derivation", "seed": 3, "group": "symmetric:3"},
            {"kind": "urns_certificate", "seed": 3, "samples": 10},
        ):
            report, code = run_scenario(sc)
            assert code == EXIT_OK, report
            assert report["result"]["status"] == "ok"

    def test_corrupt_checked_is_inconsistent(self):
        report, code = run_scenario(
            {"kind": "matrix_derivation", "seed": 5, "group": "s3", "corrupt": True}
        )
        assert code == EXIT_INCONSISTENT
        assert report["result"]["status"] == "inconsistent"
        assert report["result"]["error"]["type"] == "CocycleInconsistencyError"

    def test_corrupt_unchecked_is_flagged(self):
        report, code = run_scenario(
            {
                "kind": "matrix_derivation",
                "seed": 5,
                "group": "s3",
                "corrupt": True,
                "check_cocycle": False,
            }
        )
        assert code == EXIT_FLAGGED
        assert report["result"]["witness"]["flagged"] is True

    def test_group_algebra_corrupt(self):
        report, code = run_scenario(
            {"kind": "group_algebra_derivation", "seed": 2, "group": "cyclic:6", "corrupt": True}
        )
        assert code == EXIT_INCONSISTENT
        report, code = run_scenario(
            {
                "kind": "group_algebra_derivation",
                "seed": 2,
                "group": "cyclic:6",
                "corrupt": True,
                "check_cocycle": False,
            }
        )
        assert code == EXIT_FLAGGED

    def test_format_error(self):
        report, code = run_scenario({"kind": "box_fixed_point"})
        assert code == EXIT_FORMAT
        assert report["result"]["status"] == "format_error"

    @pytest.mark.parametrize("group", OUT_OF_RANGE_GROUPS)
    def test_out_of_range_group_is_format_error(self, group, monkeypatch):
        def no_table(name):
            raise AssertionError("a group table was built")

        monkeypatch.setattr(runner, "cayley_group", no_table)
        scenario = {"kind": "group_algebra_derivation", "seed": 1, "group": group}
        report, code = run_scenario(scenario)
        assert code == EXIT_FORMAT
        assert report["result"]["status"] == "format_error"

    @pytest.mark.parametrize(
        "scenario",
        [
            {"kind": "box_fixed_point", "seed": 0, "max_order": 1},
            {"kind": "fiber_fixed_point", "seed": 0, "max_order": 1},
            {"kind": "fiber_fixed_point", "seed": 0, "max_order": 2},
        ],
    )
    def test_unmeetable_order_budget_is_format_error(self, scenario):
        """Rejection sampling gives up after a fixed number of draws, so a
        max_order no draw can meet ends in exit 4 instead of a hang."""
        started = time.perf_counter()
        report, code = run_scenario(scenario)
        assert time.perf_counter() - started < 5.0
        assert code == EXIT_FORMAT
        assert report["result"]["status"] == "format_error"
        assert "max_order" in report["result"]["error"]

    @pytest.mark.parametrize("check", [True, False])
    def test_group_algebra_nan_table_is_not_accepted(self, check, monkeypatch):
        def with_nan(group, seed):
            c = np.zeros((len(group), len(group)))
            c[2, 3] = np.nan
            return c, np.zeros(len(group))

        monkeypatch.setattr(runner, "random_translation_cocycle", with_nan)
        scenario = {"kind": "group_algebra_derivation", "seed": 1, "group": "cyclic:6",
                    "check_cocycle": check}
        report, code = run_scenario(scenario)
        assert code == (EXIT_INCONSISTENT if check else EXIT_FLAGGED)

    @pytest.mark.parametrize(
        "layer, scenario, error, code, status",
        [
            ("unitary_group", {"kind": "matrix_derivation", "seed": 1, "group": "q8"},
             GroupNotClosedError("closure exceeded 64 elements"), EXIT_FORMAT, "format_error"),
            ("iterate_box", {"kind": "box_fixed_point", "seed": 1},
             SpaceMismatchError("box descent requires k=1 fibers"), EXIT_INCONSISTENT,
             "inconsistent"),
            ("orbit_center_fixed_point", {"kind": "fiber_fixed_point", "seed": 1},
             EmptyDomainError("empty cloud has no stacked form"), EXIT_INCONSISTENT,
             "inconsistent"),
        ],
    )
    def test_package_errors_map_to_exit_codes(self, layer, scenario, error, code, status,
                                              monkeypatch):
        """No package error escapes as a traceback."""
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(runner, layer, fail)
        report, got = run_scenario(scenario)
        assert got == code
        assert report["result"]["status"] == status
        assert str(error) in json.dumps(report["result"]["error"])

    def test_sample_box_inversion_is_format_error(self):
        report, code = run_scenario(
            {
                "kind": "box_fixed_point",
                "seed": 1,
                "dim": 2,
                "sample_box": {"lo": [0.5, 0.0], "hi": [0.25, 1.0]},
            }
        )
        assert code == EXIT_FORMAT

    def test_sample_box_seeds_start_point(self):
        sc = {
            "kind": "box_fixed_point",
            "seed": 4,
            "sample_box": {"lo": [-1.0] * 8, "hi": [1.0] * 8},
        }
        report, code = run_scenario(sc)
        assert code == EXIT_OK


class TestRunnerResults:
    def test_box_result_fields(self):
        report, _ = run_scenario({"kind": "box_fixed_point", "seed": 11})
        r = report["result"]
        assert r["halving_exact"] is True
        assert r["residual"] <= 1e-9
        assert r["iterations"] >= 0
        assert len(r["fixed_point"]) == 8
        assert r["final_diameter"] <= 1e-10

    def test_matrix_result_fields(self):
        report, _ = run_scenario(
            {"kind": "matrix_derivation", "seed": 1, "group": "c12", "method": "averaging"}
        )
        r = report["result"]
        assert r["group_order"] == 12 and r["norming_size"] == 24
        assert r["witness"]["witness_residual"] <= 1e-8
        assert r["similarity"]["intertwine_residual"] <= 1e-9

    def test_similarity_can_be_disabled(self):
        report, _ = run_scenario(
            {"kind": "matrix_derivation", "seed": 1, "group": "q8", "similarity": False}
        )
        assert "similarity" not in report["result"]

    def test_meta_present_but_outside_result(self):
        report, _ = run_scenario({"kind": "urns_certificate", "seed": 1, "samples": 5})
        assert "elapsed_s" in report["meta"] and "timestamp" in report["meta"]
        assert "elapsed_s" not in report["result"]

    def test_trace_csv_written(self, tmp_path):
        run_scenario({"kind": "box_fixed_point", "seed": 2}, trace_dir=tmp_path, name="t")
        assert (tmp_path / "t.csv").exists()


class TestDeterminism:
    @pytest.mark.parametrize(
        "sc",
        [
            {"kind": "box_fixed_point", "seed": 13},
            {"kind": "fiber_fixed_point", "seed": 13},
            {"kind": "matrix_derivation", "seed": 13, "group": "c12", "method": "orbit_center"},
            {"kind": "matrix_derivation", "seed": 13, "group": "s3", "corrupt": True},
            {"kind": "group_algebra_derivation", "seed": 13, "group": "symmetric:3"},
            {"kind": "urns_certificate", "seed": 13},
        ],
    )
    def test_result_blocks_byte_identical(self, sc):
        r1, c1 = run_scenario(sc)
        r2, c2 = run_scenario(sc)
        assert c1 == c2
        assert canonical_result_bytes(r1) == canonical_result_bytes(r2)


class TestSuite:
    def test_mixed_suite(self, tmp_path):
        suite = [
            {"kind": "box_fixed_point", "seed": 0},
            {"kind": "matrix_derivation", "seed": 0, "group": "q8"},
            {"kind": "matrix_derivation", "seed": 0, "group": "s3", "corrupt": True},
        ]
        report, code = run_suite(suite, trace_dir=tmp_path)
        assert code == EXIT_INCONSISTENT  # worst of 0, 0, 3
        assert report["summary"]["count"] == 3
        assert report["summary"]["by_status"] == {"inconsistent": 1, "ok": 2}
        assert (tmp_path / "scenario_000.csv").exists()

    def test_bad_suite_is_format_error(self):
        report, code = run_suite({"bogus": 1})
        assert code == EXIT_FORMAT
