"""Execute scenario descriptions and report results with stable exit codes.

Exit code contract:

    0   solved, all checks passed
    2   solver finished but flagged the outcome (non-convergence, or the
        requested witness provably does not exist at tolerance)
    3   input data is mathematically inconsistent: cocycle law violated,
        an iterate failed its exact invariance check, or the data's
        shapes or domains do not fit together
    4   scenario file malformed (schema or semantic validation), its
        max_order cannot be met by the instance generator, or a group
        closure outgrew its element cap

The "result" block of a report is a pure function of the scenario, so
rerunning a scenario must reproduce it byte for byte once serialized with
sorted keys; timing and timestamps live under "meta" only.
"""

from __future__ import annotations

import json
import math
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .centers import verify_urns_certificate
from .cocycles import (
    LAW_TOL,
    check_cocycle,
    check_translation_cocycle,
    translation_law_worst_pair,
)
from .errors import (
    CocycleInconsistencyError,
    EmptyDomainError,
    GroupNotClosedError,
    InvarianceViolationError,
    SamplingBudgetError,
    ScenarioFormatError,
    SpaceMismatchError,
)
from .instances import (
    cayley_group,
    corrupt_cocycle_table,
    corrupt_derivation,
    random_box_group,
    random_certificate_instance,
    random_fiber_group,
    random_inner_derivation,
    random_translation_cocycle,
    unitary_group,
)
from .iterate import fixed_point_residual, iterate_box, orbit_center_fixed_point
from .scenarios import validate_scenario, validate_suite
from .spaces import SupPoint
from .witnesses import (
    build_affine_action,
    build_similarity,
    finite_group_algebra_witness,
    solve_witness,
)

EXIT_OK = 0
EXIT_FLAGGED = 2
EXIT_INCONSISTENT = 3
EXIT_FORMAT = 4


def canonical_result_bytes(report: dict) -> bytes:
    """The deterministic serialization reruns are compared against."""
    return json.dumps(report["result"], sort_keys=True, separators=(",", ":")).encode()


# Each _run_<kind> returns (result, ok); run_scenario turns ok into the
# result's status and the exit code.


def _run_box(params: dict, trace_dir, name: str) -> tuple[dict, bool]:
    group, x0 = random_box_group(params["seed"], params["dim"], params["max_order"])
    if "sample_box" in params:
        lo = np.array(params["sample_box"]["lo"])
        hi = np.array(params["sample_box"]["hi"])
        x0 = SupPoint(((lo + hi) / 2.0)[:, None])
    fixed_point, trace = iterate_box(group, x0, tol=params["tol"])
    result = {
        "group_order": len(group),
        "iterations": len(trace) - 1,
        "initial_diameter": trace.diameter(0),
        "final_diameter": trace.diameter(-1),
        "halving_exact": trace.halving_exact,
        "residual": fixed_point_residual(group, fixed_point),
        "fixed_point": fixed_point.fibers[:, 0].tolist(),
        "terminated": trace.terminated,
    }
    if trace_dir is not None:
        trace.write_csv(Path(trace_dir) / f"{name}.csv")
    return result, trace.terminated == "converged"


def _run_fiber(params: dict, trace_dir, name: str) -> tuple[dict, bool]:
    group, x0 = random_fiber_group(
        params["seed"], params["fibers"], params["fiber_dim"], params["max_order"]
    )
    z = orbit_center_fixed_point(group, x0)
    residual = fixed_point_residual(group, z)
    result = {
        "group_order": len(group),
        "residual": residual,
        "fixed_point": z.fibers.tolist(),
    }
    return result, residual <= params["tol"]


def _run_matrix(params: dict, trace_dir, name: str) -> tuple[dict, bool]:
    group = unitary_group(params["group"])
    data, _ = random_inner_derivation(group, params["seed"])
    if params["corrupt"]:
        data = corrupt_derivation(data, params["seed"] + 1)
    defect = check_cocycle(data, LAW_TOL if params["check_cocycle"] else math.inf)
    report = solve_witness(data, method=params["method"])
    result = {
        "group": params["group"],
        "group_order": len(group),
        "norming_size": report.t_model.shape[0],
        "cocycle_defect": defect,
        "witness": report.as_dict(),
    }
    if params["similarity"] and not report.flagged:
        model = build_affine_action(data)
        result["similarity"] = build_similarity(model, report.t_model).as_dict()
    return result, not report.flagged


def _run_group_algebra(params: dict, trace_dir, name: str) -> tuple[dict, bool]:
    group = cayley_group(params["group"])
    c, _ = random_translation_cocycle(group, params["seed"])
    if params["corrupt"]:
        c = corrupt_cocycle_table(c, params["seed"] + 1)
    if params["check_cocycle"]:
        defect = check_translation_cocycle(group, c)
    else:  # unchecked data, NaN included, goes on to the witness, which flags it
        defect = translation_law_worst_pair(group, c)[0]
    report = finite_group_algebra_witness(group, c)
    result = {
        "group": params["group"],
        "group_order": len(group),
        "law_defect": defect,
        "witness": report.as_dict(),
    }
    return result, not report.flagged


def _run_urns(params: dict, trace_dir, name: str) -> tuple[dict, bool]:
    cloud, z, constant, ys = random_certificate_instance(
        params["seed"],
        params["fibers"],
        params["fiber_dim"],
        params["points"],
        params["samples"],
        constant=params.get("constant"),
    )
    cert = verify_urns_certificate(cloud, z, constant, ys)
    result = {
        "fibers": params["fibers"],
        "fiber_dim": params["fiber_dim"],
        "points": params["points"],
        **cert.as_dict(),
    }
    return result, cert.ok


_DISPATCH = {
    "box_fixed_point": _run_box,
    "fiber_fixed_point": _run_fiber,
    "matrix_derivation": _run_matrix,
    "group_algebra_derivation": _run_group_algebra,
    "urns_certificate": _run_urns,
}


def run_scenario(raw: dict, trace_dir=None, name: str | None = None) -> tuple[dict, int]:
    """Run one scenario; returns (report, exit code) and never raises on
    anticipated bad input."""
    started = time.perf_counter()
    try:
        params = validate_scenario(raw)
    except ScenarioFormatError as exc:
        report = {
            "kind": raw.get("kind") if isinstance(raw, dict) else None,
            "scenario": raw,
            "result": {"status": "format_error", "error": str(exc)},
            "meta": _meta(started),
        }
        return report, EXIT_FORMAT

    kind = params["kind"]
    if name is None:
        name = f"{kind}_{params['seed']}"
    try:
        result, ok = _DISPATCH[kind](params, trace_dir, name)
        result = {"status": "ok" if ok else "flagged", **result}
        code = EXIT_OK if ok else EXIT_FLAGGED
    except (
        CocycleInconsistencyError,
        InvarianceViolationError,
        SpaceMismatchError,
        EmptyDomainError,
    ) as exc:
        result = {
            "status": "inconsistent",
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        code = EXIT_INCONSISTENT
    # valid schema, but max_order cannot be met, or the group outgrows its cap
    except (SamplingBudgetError, GroupNotClosedError) as exc:
        result = {"status": "format_error", "error": str(exc)}
        code = EXIT_FORMAT
    report = {"kind": kind, "scenario": params, "result": result, "meta": _meta(started)}
    return report, code


def _meta(started: float) -> dict:
    return {
        "elapsed_s": round(time.perf_counter() - started, 6),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def run_suite(raw, trace_dir=None) -> tuple[dict, int]:
    """Run every scenario of a suite; the exit code is the worst one seen."""
    started = time.perf_counter()
    try:
        scenarios = validate_suite(raw)
    except ScenarioFormatError as exc:
        report = {
            "scenarios": [],
            "summary": {"count": 0, "error": str(exc)},
            "meta": _meta(started),
        }
        return report, EXIT_FORMAT

    reports = []
    codes = []
    for i, scenario in enumerate(scenarios):
        rep, code = run_scenario(scenario, trace_dir=trace_dir, name=f"scenario_{i:03d}")
        reports.append(rep)
        codes.append(code)
    statuses = [r["result"]["status"] for r in reports]
    summary = {
        "count": len(reports),
        "by_status": {s: statuses.count(s) for s in sorted(set(statuses))},
        "exit_codes": codes,
    }
    return {"scenarios": reports, "summary": summary, "meta": _meta(started)}, max(codes)
