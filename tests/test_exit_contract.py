"""Every schema-valid scenario ends in the exit-code contract.

Scenarios of each kind are drawn from small ranges of every field the
schema allows, including integers written as floats, non-finite numbers
(which a JSON Schema "number" admits) and the corrupt and check flags in
both states.  Each run must end in exit 0, 2, 3 or 4 with the matching
status, within a few seconds, and its result must serialize.
"""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supfix.runner import canonical_result_bytes, run_scenario

STATUS = {0: "ok", 2: "flagged", 3: "inconsistent", 4: "format_error"}


def now_and_then(rare, usual):
    """One draw in eight from `rare`, the rest from `usual`."""
    return st.integers(0, 7).flatmap(lambda i: rare if i == 0 else usual)


def integers(lo: int, hi: int):
    """An integer field: JSON Schema also counts 8.0 as the integer 8."""
    return st.integers(lo, hi) | st.integers(lo, hi).map(float)


SEEDS = integers(0, 2**32 - 1)
NAN = st.just(math.nan)  # no schema bound excludes NaN
TOLS = now_and_then(NAN, st.floats(min_value=0.0, exclude_min=True))
COORDS = st.floats(-2.0, 2.0)


def scenarios(kind: str, optional: dict):
    return st.fixed_dictionaries({"kind": st.just(kind), "seed": SEEDS}, optional=optional)


@st.composite
def box_scenarios(draw):
    scenario = draw(scenarios("box_fixed_point", {
        "dim": integers(1, 8), "max_order": integers(1, 64), "tol": TOLS,
    }))
    if draw(st.booleans()):
        dim = int(scenario.get("dim", 8))
        # a wrong length or a reversed pair is a format error
        size = draw(now_and_then(st.sampled_from([dim - 1, dim + 1]), st.just(dim)))
        pairs = draw(st.lists(st.tuples(COORDS, COORDS), min_size=size, max_size=size))
        if draw(now_and_then(st.just(False), st.just(True))):
            pairs = [sorted(p) for p in pairs]
        box = scenario["sample_box"] = {"lo": [a for a, _ in pairs], "hi": [b for _, b in pairs]}
        if pairs and draw(now_and_then(st.just(True), st.just(False))):
            box["hi"][-1] = math.nan
    return scenario


def group_names():
    """family:N for N up to the caps, with leading zeros and N = 0 now and then."""
    zeros = now_and_then(st.text("0", min_size=1, max_size=2), st.just(""))

    def family(name, top):
        n = now_and_then(st.just(0), st.integers(1, top))
        return st.tuples(zeros, n).map(lambda z: f"{name}:{z[0]}{z[1]}")

    return family("cyclic", 64) | family("symmetric", 4)


FLAGS = {"corrupt": st.booleans(), "check_cocycle": st.booleans()}

KINDS = {
    "box_fixed_point": box_scenarios(),
    "fiber_fixed_point": scenarios("fiber_fixed_point", {
        "fibers": integers(1, 6), "fiber_dim": integers(1, 8), "max_order": integers(1, 64),
        "tol": TOLS,
    }),
    "matrix_derivation": scenarios("matrix_derivation", {
        "method": st.sampled_from(["orbit_center", "averaging", "least_squares"]),
        "similarity": st.booleans(), **FLAGS,
    }).flatmap(lambda s: st.sampled_from(["q8", "s3", "c12"]).map(lambda g: {**s, "group": g})),
    "group_algebra_derivation": scenarios("group_algebra_derivation", FLAGS).flatmap(
        lambda s: group_names().map(lambda g: {**s, "group": g})),
    "urns_certificate": scenarios("urns_certificate", {
        "fibers": integers(1, 6), "fiber_dim": integers(1, 8), "points": integers(2, 20),
        "samples": integers(0, 50),
        "constant": now_and_then(NAN, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    }),
}


@pytest.mark.parametrize("kind", KINDS)
def test_schema_valid_scenarios_end_in_the_exit_contract(kind):
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(KINDS[kind])
    def run(scenario):
        started = time.perf_counter()
        report, code = run_scenario(scenario)
        assert time.perf_counter() - started < 5.0
        assert code in STATUS
        assert report["result"]["status"] == STATUS[code]
        assert report["kind"] == kind
        assert isinstance(canonical_result_bytes(report), bytes)

    run()
