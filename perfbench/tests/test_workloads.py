"""Case generation and the output oracle.

Run with `python3 -m pytest perfbench/tests`.
"""

import copy

import pytest

from workloads import WORKLOADS, check, cycle_length, execute, make_cases


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_seed_alone_fixes_the_inputs(workload):
    def payloads(seed):
        return [repr(c.payload) for c in make_cases(workload, seed, count=60)]

    assert payloads(4) == payloads(4)
    assert payloads(4) != payloads(5)


def test_witness_scale_meets_2i_once_per_cycle():
    labels = [c.label for c in make_cases("witness_scale", 1, count=300)]
    assert cycle_length("witness_scale") == 100
    assert [i for i, label in enumerate(labels) if label == "2I"] == [40, 140, 240]
    assert labels[:20].count("2O") == 4


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_cycle_has_the_same_mix(workload):
    n = cycle_length(workload)
    labels = [c.label for c in make_cases(workload, 6, count=3 * n)]
    assert sorted(labels[:n]) == sorted(labels[n:2 * n]) == sorted(labels[2 * n:])


@pytest.mark.parametrize(
    "workload, label",
    [("fixed_point", "box_d8"), ("certify", "urns_small_m3"),
     ("witness", "matrix_q8_least_squares"), ("witness", "matrix_corrupt_unchecked"),
     ("witness_scale", "2T_corrupt")],
)
def test_oracle_accepts_the_program_and_rejects_a_wrong_verdict(workload, label):
    case = next(c for c in make_cases(workload, 2, count=200) if c.label == label)
    output, code = execute(case)
    assert check(case, output, code) is None
    assert check(case, output, 4) is not None


def test_oracle_rejects_a_box_result_that_does_not_halve():
    case = next(c for c in make_cases("fixed_point", 3, count=40) if c.label == "box_d8")
    output, code = execute(case)
    broken = copy.deepcopy(output)
    broken["result"]["halving_exact"] = False
    assert check(case, broken, code) is not None


def test_oracle_rejects_witness_methods_that_disagree():
    case = next(c for c in make_cases("witness_scale", 3, count=20) if c.label == "2T")
    output, code = execute(case)
    broken = copy.deepcopy(output)
    broken["witnesses"][1]["flagged"] = True
    assert check(case, broken, code) is not None
