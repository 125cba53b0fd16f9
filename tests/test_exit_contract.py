"""Every schema-valid scenario ends in the exit-code contract.

Scenarios of each kind are drawn from small ranges of every field the
schema allows, including integers written as floats, non-finite numbers
(which a JSON Schema "number" admits) and the corrupt and check flags in
both states.  Each run must end in exit 0, 2, 3 or 4 with the matching
status, within a few seconds, and its result must serialize.

Exit 3 means inconsistent input data.  The box generator builds only
consistent groups and the descent starts from the exact orbit of its
seed point, so a box scenario never ends in exit 3, whatever sample box
it gives; a group handed to the runner with one generator's translation
moved off its grid by one ulp still does.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supfix import runner
from supfix.errors import GroupNotClosedError
from supfix.isometries import FiberPermIsometry, group_closure
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
        if kind == "box_fixed_point":
            assert code != 3, report["result"]

    run()


def decimal_sample_box(i: int, dim: int = 8) -> dict:
    """Ordinary decimal bounds, whose midpoints lie off the 2^-16 data grid."""
    return {"lo": [0.1 + 0.01 * i + 0.001 * j for j in range(dim)],
            "hi": [0.3 + 0.013 * i + 0.001 * j for j in range(dim)]}


def test_off_grid_sample_boxes_are_solved():
    codes = [run_scenario({"kind": "box_fixed_point", "seed": 1000 + i,
                           "sample_box": decimal_sample_box(i)})[1] for i in range(40)]
    assert codes == [0] * 40


@pytest.mark.parametrize("tiny", [5e-324, 1e-310, 2.0**-1022])
def test_subnormal_sample_point_is_solved_in_bounded_time(tiny):
    """A subnormal coordinate puts the orbit over the denominator 2^1074."""
    box = decimal_sample_box(3)
    box["lo"][2] = box["hi"][2] = tiny
    started = time.perf_counter()
    report, code = run_scenario({"kind": "box_fixed_point", "seed": 7, "sample_box": box})
    assert time.perf_counter() - started < 1.0
    assert code == 0 and report["result"]["halving_exact"]


def coordinate_on_a_positive_cycle(g: FiberPermIsometry) -> int:
    """A coordinate whose cycle under g has sign product +1.  Around such a
    cycle g^L moves x by the signed sum of the translations on it, which is
    0 in a finite group; moving one of them by an ulp makes g^L a shift.
    (Around a cycle of product -1, g^L is x -> c - x for any c.)"""
    perm, signs = g.perm.tolist(), g.maps[:, 0, 0].tolist()
    for start in range(len(perm)):
        sign, i = signs[start], perm[start]
        while i != start:
            sign, i = sign * signs[i], perm[i]
        if sign > 0:
            return start
    raise LookupError("every cycle of g has sign product -1")


@pytest.mark.parametrize("seed", [0, 1, 4])
def test_subnormal_sample_point_with_zero_translations_is_solved(seed):
    """A one-dimensional group whose translations are all 0 puts the exact
    orbit of a subnormal point over 2^1074, against a group denominator of 1."""
    group, _ = runner.random_box_group(seed, 1, 48)
    assert not group.trans.any()
    report, code = run_scenario({"kind": "box_fixed_point", "dim": 1, "seed": seed,
                                 "sample_box": {"lo": [5e-324], "hi": [5e-324]}})
    assert code == 0 and report["result"]["halving_exact"]


# seeds whose first generator has a cycle of sign product +1
@pytest.mark.parametrize("seed", [1000, 1002, 1003, 1006, 1007, 1008, 1009, 1010])
def test_translation_one_ulp_off_the_grid_is_inconsistent(seed, monkeypatch):
    """The moved generator is a shift of infinite order, which the exact
    closure refuses: it exceeds the cap, or, where the moved translation was
    0 and is now 2^-1074, its numerators over 2^1074 exceed the int64
    bound.  Handed to the runner as generator 0 of the parent group, whose
    elements and exact form stay, it leaves an iterate of the exact descent
    that is not invariant."""
    group, x0 = runner.random_box_group(seed, 8, 48)
    g = group.generators[0]
    q = coordinate_on_a_positive_cycle(g)
    trans = g.trans.copy()
    trans[q, 0] = np.nextafter(trans[q, 0], np.inf)
    gens = (FiberPermIsometry(g.perm, g.maps, trans), *group.generators[1:])
    if g.trans[q, 0] == 0.0:
        with pytest.raises(ValueError, match="exceeds 2\\^63 - 1"):
            group_closure(gens, cap=49)
    else:
        with pytest.raises(GroupNotClosedError, match="exceeded 49 elements"):
            group_closure(gens, cap=49)
    moved = dataclasses.replace(group, generators=gens)
    monkeypatch.setattr(runner, "random_box_group", lambda *args: (moved, x0))
    report, code = run_scenario({"kind": "box_fixed_point", "seed": seed,
                                 "sample_box": decimal_sample_box(seed - 1000)})
    assert code == 3
    assert "not invariant" in report["result"]["error"]["message"]
