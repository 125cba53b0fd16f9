"""Tracer self-test: wrapped call counts against hand-derived counts.

Run with `python3 -m pytest perfbench/tests`.
"""

import json
from pathlib import Path

import pytest

import supfix
from supfix import centers, instances, runner
from tracing import ROOT_SPAN, Tracer
from workloads import WORKLOADS, execute, fingerprint, make_cases

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.fixture()
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_matrix_case_with_similarity_builds_the_affine_action_twice(tracer):
    scenario = {"kind": "matrix_derivation", "seed": 5, "group": "q8", "similarity": True}
    _, code = tracer.case(0, runner.run_scenario, scenario)
    assert code == 0
    calls = tracer.calls()
    # once inside solve_witness, once more for the similarity
    assert calls["witnesses.build_affine_action"] == 2
    assert calls["witnesses.solve_witness.least_squares"] == 1
    assert calls["runner.run_scenario"] == 1


def test_urns_center_calls_seb_center_once_per_fiber(tracer):
    cloud = instances.random_cloud(7, fibers=5, fiber_dim=3, points=12)
    tracer.case(0, centers.urns_center, cloud)
    calls = tracer.calls()
    assert calls["centers.urns_center"] == 1
    assert calls["seb.seb_center"] == 5
    assert tracer.stats["seb.seb_center.points"] == 5 * 12


def test_group_algebra_case_checks_the_law_twice(tracer):
    scenario = {"kind": "group_algebra_derivation", "seed": 2, "group": "symmetric:3"}
    _, code = tracer.case(0, runner.run_scenario, scenario)
    assert code == 0
    calls = tracer.calls()
    # the runner's law check, then translation_cocycle_defect inside the witness
    assert calls["cocycles.translation_law_worst_pair"] == 2
    assert tracer.cases_calling("cocycles.translation_law_worst_pair") == 1
    assert calls["cocycles.CayleyGroup.symmetric"] == 1


def test_self_times_sum_to_the_root_span(tracer):
    scenario = {"kind": "box_fixed_point", "seed": 4, "dim": 6, "max_order": 24}
    tracer.case(0, runner.run_scenario, scenario)
    (root,) = [i for i, n in enumerate(tracer.span_name) if tracer.names[n] == ROOT_SPAN]
    duration = tracer.span_end[root] - tracer.span_start[root]
    assert len(tracer.span_start) > 10
    assert sum(tracer.self_seconds().values()) == pytest.approx(duration, rel=1e-9)
    assert all(s >= -1e-9 for s in tracer.self_seconds().values())


def test_fiber_group_rejection_sampling_is_counted(tracer):
    scenario = {"kind": "fiber_fixed_point", "seed": 9}
    tracer.case(0, runner.run_scenario, scenario)
    calls = tracer.calls()
    closures = tracer.children_of("instances.random_fiber_group", "isometries.group_closure")
    # at least one candidate closure plus the final closure of the generators
    assert closures >= 2
    assert calls["isometries.group_closure"] == closures


def test_uninstall_restores_every_binding():
    originals = (runner.run_scenario, supfix.iterate.box_H, supfix.centers.sup_distance,
                 supfix.unitary.UnitaryGroup.__dict__["cayley"])
    t = Tracer()
    t.install()
    assert supfix.iterate.box_H is not originals[1]
    assert supfix.iterate.box_H is supfix.boxes.box_H
    t.uninstall()
    assert (runner.run_scenario, supfix.iterate.box_H, supfix.centers.sup_distance,
            supfix.unitary.UnitaryGroup.__dict__["cayley"]) == originals


def test_every_per_layer_metric_names_a_traced_span(tracer):
    spec = json.loads(BENCHMARK.read_text())
    known = set(tracer.names) | {f"witnesses.solve_witness.{m}"
                                 for m in ("orbit_center", "averaging", "least_squares")}
    stat_names = {"witnesses.least_squares", "tracer"}
    for metric in spec["per_layer"]:
        span = metric["name"].rpartition(".")[0]
        assert span in known or span in stat_names, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_equal_untraced_outputs(workload):
    cases = [c for c in make_cases(workload, seed=3, count=12) if "2O" not in c.label][:4]
    plain = [fingerprint(*execute(c)) for c in cases]
    t = Tracer()
    t.install()
    try:
        traced = [fingerprint(*t.case(i, execute, c)) for i, c in enumerate(cases)]
    finally:
        t.uninstall()
    assert traced == plain
