"""Case generators, runners and output oracles for the four workloads.

A case is one generated input carried through to its verdict.  Every
workload is a fixed cycle of case shapes; the run seed only draws the
per-case seeds and the order inside each cycle, so two seeds give
different inputs with the same mix.  Cases are generated up front, in
set-up, and the program receives only the generated inputs.

The package is reached through module attributes at call time
(`runner.run_scenario`, not a name imported here), so a traced run sees
the wrapped functions.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

import numpy as np

from supfix import cocycles, instances, runner, unitary, witnesses

WORKLOADS = ("fixed_point", "certify", "witness", "witness_scale")

# Cases generated per run; far more than a run completes at this commit,
# so a run never wraps around its list.
CASES_PER_RUN = 5000

_SEED_MAX = 2**32 - 1
_LAW_TOL = 1e-8  # criterion 3 and 5 residual bound
_SIM_TOL = 1e-9  # criterion 4 similarity bound
_REJECT_TOL = 1e-6  # criterion 3: a rejected witness leaves a model residual above this


@dataclass(frozen=True)
class Case:
    label: str  # shape name, used in reports
    payload: object  # scenario dict, or ScaleInput for witness_scale
    expect_exit: int


@dataclass(frozen=True)
class ScaleInput:
    group: str
    generators: tuple
    seed: int
    corrupt: bool


# -- case shapes ---------------------------------------------------------------


def _box(dim, max_order):
    return {"kind": "box_fixed_point", "dim": dim, "max_order": max_order}


def _urns(fibers, fiber_dim, points, samples=50):
    return {"kind": "urns_certificate", "fibers": fibers, "fiber_dim": fiber_dim,
            "points": points, "samples": samples}


def _matrix(group, method, **flags):
    return {"kind": "matrix_derivation", "group": group, "method": method, **flags}


def _algebra(group):
    return {"kind": "group_algebra_derivation", "group": group}


# Each cycle lists (label, scenario without seed, expected exit code).
# Shares of each cycle are set so that the median and the 90th percentile
# fall inside one shape's many cases, not on the edge between two shapes,
# where a run's percentile would jump with its seed.  In fixed_point both
# fall inside box_d8: the cost of a box case follows its random group order,
# and the percentiles of the few box_d16 cases a run meets move with the
# seed (with box_d16 at 3 in 20 the p90 spread over ten seeds reached 0.24).
FIXED_POINT_CYCLE = (
    [("box_d8", _box(8, 48), 0)] * 36
    + [("fiber_5x3", {"kind": "fiber_fixed_point", "fibers": 5, "fiber_dim": 3}, 0)] * 3
    + [("box_d16", _box(16, 64), 0)]
)

CERTIFY_CYCLE = (
    [(f"urns_small_m{m}", _urns(m, 3, 10), 0) for m in range(1, 7)] * 2
    + [("urns_p50_k4", _urns(4, 4, 50), 0)] * 2
    + [("urns_p50_k5", _urns(4, 5, 50), 0)]
)

WITNESS_CYCLE = (
    [(f"matrix_{g}_{m}", _matrix(g, m, similarity=True), 0)
     for g in ("q8", "s3", "c12") for m in witnesses.WITNESS_METHODS]
    + [("matrix_corrupt_checked", _matrix(g, "least_squares", corrupt=True), 3)
       for g in ("q8", "c12")]
    + [("matrix_corrupt_unchecked", _matrix(g, m, corrupt=True, check_cocycle=False), 2)
       for g, m in (("s3", "averaging"), ("q8", "orbit_center"))]
    + [(f"algebra_{g.replace(':', '')}", _algebra(g), 0)
       for g in ("cyclic:6", "cyclic:24", "symmetric:3", "symmetric:4", "symmetric:5")]
)


def _quaternion(a, b, c, d):
    """The SU(2) matrix of the unit quaternion a + bi + cj + dk."""
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def scale_groups() -> dict[str, tuple]:
    """Generators of the witness_scale groups, built from explicit matrices."""
    phi = (1 + 5**0.5) / 2
    omega = _quaternion(0.5, 0.5, 0.5, 0.5)  # order 6
    return {
        "2T": (_quaternion(0, 1, 0, 0), omega),  # binary tetrahedral, order 24
        "2O": (_quaternion(2**-0.5, 2**-0.5, 0, 0), omega),  # binary octahedral, 48
        "2I": (omega, _quaternion(phi / 2, 1 / (2 * phi), 0.5, 0)),  # binary icosahedral, 120
        "B3": (  # signed 3x3 permutations, order 48
            np.array([[0.0, 1, 0], [0, 0, 1], [1, 0, 0]]),
            np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]]),
            np.diag([-1.0, 1, 1]),
        ),
    }


# witness_scale repeats a pattern of 20 cases; "*" marks a corrupted one.  The
# shares put the median inside the 2T cases and the 90th percentile inside the
# 2O cases, away from the edge between two group sizes.  One case in each cycle
# of 100, at a fixed position, is 2I instead; a timed run ends on a whole number
# of cycles, so 2I is always 1% of its cases.
SCALE_PATTERN = ("2T", "2O", "2T", "2T*", "B3", "2T", "2O", "2T", "2T", "2T",
                 "2T", "2O", "2T*", "2T", "B3*", "2T", "2O", "2T", "2T", "2T")
SCALE_CYCLE_LENGTH = 100
SCALE_2I_POSITION = 40


# -- generation ----------------------------------------------------------------


def cycle_length(workload: str) -> int:
    """Cases in one cycle of the workload's mix of case shapes."""
    cycles = {"fixed_point": FIXED_POINT_CYCLE, "certify": CERTIFY_CYCLE,
              "witness": WITNESS_CYCLE}
    return len(cycles[workload]) if workload in cycles else SCALE_CYCLE_LENGTH


def _from_cycle(cycle, rng: random.Random, count: int) -> list[Case]:
    cases: list[Case] = []
    while len(cases) < count:
        order = list(cycle)
        rng.shuffle(order)
        for label, shape, expect in order:
            scenario = {**shape, "seed": rng.randrange(_SEED_MAX)}
            cases.append(Case(label, scenario, expect))
    return cases[:count]


def make_cases(workload: str, seed: int, count: int = CASES_PER_RUN) -> list[Case]:
    rng = random.Random(seed)
    if workload == "fixed_point":
        return _from_cycle(FIXED_POINT_CYCLE, rng, count)
    if workload == "certify":
        return _from_cycle(CERTIFY_CYCLE, rng, count)
    if workload == "witness":
        return _from_cycle(WITNESS_CYCLE, rng, count)
    if workload == "witness_scale":
        groups = scale_groups()
        cases = []
        for i in range(count):
            shape = SCALE_PATTERN[i % len(SCALE_PATTERN)]
            if i % SCALE_CYCLE_LENGTH == SCALE_2I_POSITION:
                shape = "2I"
            name, corrupt = shape.rstrip("*"), shape.endswith("*")
            inp = ScaleInput(name, groups[name], rng.randrange(_SEED_MAX - 1), corrupt)
            cases.append(Case(f"{name}_corrupt" if corrupt else name, inp, 2 if corrupt else 0))
        return cases
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# -- execution -----------------------------------------------------------------


def _run_scale(inp: ScaleInput, checkpoint) -> dict:
    """The call sequence of the runner's matrix path, on an explicit group,
    with every witness method on the same data."""
    group = unitary.unitary_closure(inp.generators)
    data, _ = instances.random_inner_derivation(group, inp.seed)
    if inp.corrupt:
        data = instances.corrupt_derivation(data, inp.seed + 1)
    checkpoint()
    defect, _, _ = cocycles.cocycle_defect(data)
    reports = []
    for method in witnesses.WITNESS_METHODS:
        checkpoint()
        reports.append(witnesses.solve_witness(data, method=method))
    similarity = None
    if not any(r.flagged for r in reports):
        checkpoint()
        model = witnesses.build_affine_action(data)
        least_squares = reports[witnesses.WITNESS_METHODS.index("least_squares")]
        similarity = witnesses.build_similarity(model, least_squares.t_model).as_dict()
    norming_size, d = reports[0].t_model.shape
    return {
        "order": len(group),
        "norming_size": norming_size,
        "d": d,
        "defect": defect,
        "witnesses": [r.as_dict() for r in reports],
        "similarity": similarity,
    }


def _no_checkpoint() -> None:
    pass


def execute(case: Case, checkpoint=_no_checkpoint):
    """Run one case through the program; returns (output, exit code).

    A witness_scale case calls checkpoint() between its steps, so the
    caller can split its timing there.
    """
    if isinstance(case.payload, ScaleInput):
        out = _run_scale(case.payload, checkpoint)
        flagged = out["witnesses"][0]["flagged"]
        return out, 2 if flagged else 0
    return runner.run_scenario(case.payload)


def fingerprint(output, code: int) -> str:
    """Digest of what a case produced, for comparing a traced run with an untraced one."""
    if isinstance(output, dict) and "result" in output:
        body = runner.canonical_result_bytes(output)
    else:
        body = json.dumps(output, sort_keys=True).encode()
    return hashlib.sha256(body + b"|%d" % code).hexdigest()


# -- oracle --------------------------------------------------------------------


def _witness_ok(w: dict) -> bool:
    fp = w["fixed_point_residual"]
    return (
        not w["flagged"]
        and w["model_residual"] <= _LAW_TOL
        and w["witness_residual"] <= _LAW_TOL
        and (fp is None or fp <= _LAW_TOL)
    )


def _similarity_ok(sim: dict | None) -> bool:
    return (
        sim is not None
        and sim["homomorphism_residual"] <= _SIM_TOL
        and sim["intertwine_residual"] <= _SIM_TOL
    )


def _rejected(w: dict) -> bool:
    return w["flagged"] and w["model_residual"] > _REJECT_TOL


def check(case: Case, output, code: int) -> str | None:
    """None when the case's output is correct, else what is wrong with it."""
    if code != case.expect_exit:
        return f"exit {code}, expected {case.expect_exit}"
    if isinstance(case.payload, ScaleInput):
        flags = {w["flagged"] for w in output["witnesses"]}
        if len(flags) != 1:
            return "witness methods disagree on accept/reject"
        if case.payload.corrupt:
            ok = output["defect"] > _LAW_TOL and all(_rejected(w) for w in output["witnesses"])
        else:
            ok = all(_witness_ok(w) for w in output["witnesses"]) and _similarity_ok(
                output["similarity"])
        return None if ok else "witness residual bound violated"

    result = output["result"]
    kind = case.payload["kind"]
    params = output["scenario"]
    if kind == "box_fixed_point":
        ok = (result["status"] == "ok" and result["halving_exact"]
              and result["residual"] <= params["tol"]
              and result["group_order"] <= params["max_order"])
    elif kind == "fiber_fixed_point":
        ok = result["status"] == "ok" and result["residual"] <= params["tol"]
    elif kind == "urns_certificate":
        ok = (result["ok"] and result["checked_samples"] == params["samples"]
              and result["rejected_samples"] == 0)
    elif kind == "matrix_derivation":
        if code == 0:
            ok = _witness_ok(result["witness"]) and (
                not params["similarity"] or _similarity_ok(result.get("similarity")))
        elif code == 2:
            ok = _rejected(result["witness"])
        else:
            ok = result["status"] == "inconsistent"
    elif kind == "group_algebra_derivation":
        w = result["witness"]
        ok = (not w["flagged"] and w["residual"] <= _LAW_TOL
              and w["law_defect"] <= _LAW_TOL)
    else:
        return f"no oracle for kind {kind!r}"
    return None if ok else f"{kind} output check failed"
