"""Schema-cap corners end in their recorded exit codes.

`scenarios/caps/` holds each kind at its schema caps (box dim 64 with
max_order 512, fiber 16 x 8 with max_order 512 and with the unmeetable
max_order 1, 2 and 3, `symmetric:5`, `cyclic:512`, and the largest
certificate), with its own manifest.  It is not the acceptance pack, so
no acceptance digest covers it.  The manifest also lists the known slow
fiber seeds, 77 and 6, which take seconds each; they are checked for
schema validity here but not run.  Where the manifest records an error
text, the report must carry it unchanged.

The corners that stay short under tracemalloc also have a memory gate: a
traced run, apart from any timing, whose peak must stay within a bound
written from the corner's input sizes and the package's one block budget.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from supfix.instances import cayley_group
from supfix.runner import run_scenario
from supfix.scenarios import validate_scenario

CAPS_DIR = Path(__file__).resolve().parents[1] / "scenarios" / "caps"
ENTRIES = json.loads((CAPS_DIR / "manifest.json").read_text())["entries"]


def load(entry: dict) -> dict:
    return json.loads((CAPS_DIR / entry["file"]).read_text())


def test_manifest_lists_every_corner_and_the_slow_seeds():
    files = {path.name for path in CAPS_DIR.glob("*.json")} - {"manifest.json"}
    assert sorted(entry["file"] for entry in ENTRIES) == sorted(files)
    for entry in ENTRIES:
        validate_scenario(load(entry))
    slow = [load(entry) for entry in ENTRIES if entry.get("slow")]
    assert sorted(raw["seed"] for raw in slow) == [6, 77]
    assert all(raw["kind"] == "fiber_fixed_point" for raw in slow)


@pytest.mark.parametrize("entry", [e for e in ENTRIES if not e.get("slow")],
                         ids=lambda entry: entry["file"])
def test_cap_corner_ends_in_its_exit_code(entry):
    report, code = run_scenario(load(entry))
    assert code == entry["expect_exit"], report["result"]
    if "expect_error" in entry:
        assert report["result"]["error"] == entry["expect_error"]


# The value of `spaces._BLOCK_BYTES`, written out: a larger budget must fail
# the bounds, not raise them.
BUDGET = 384 * 1024
WORD = 8
# The Python objects of one run (report, closure keys, lists) and numpy's
# small temporaries.
SLACK = 1 << 20
# Traced, fiber 16 x 8 at max_order 512 takes seconds and the certificate
# corner longer, so they are left out.
TRACED = ["algebra_cyclic512.json", "algebra_symmetric5.json",
          "box_dim64_order512.json", "fiber_16x8_order1.json"]


def peak_bound(raw: dict) -> int:
    """The most bytes a corner may hold at once, from its input sizes.

    group_algebra_derivation: six n x n word tables (the group table, the
    cocycle, the witness's orbit of zero, and the law check's twisted table,
    conjugation table and defects) and the law check's two block buffers,
    each the budget or one row of n x n words, whichever is larger.
    box_fixed_point: eight (max_order, dim) word stacks, for the closure's
    exact forms (sources, signs, numerators), products and keys and the
    group's float translations.  fiber_fixed_point with an unmeetable max_order: a few
    candidates' (fibers, fiber_dim, fiber_dim) maps, since no draw is kept.
    """
    if raw["kind"] == "group_algebra_derivation":
        table = len(cayley_group(raw["group"])) ** 2 * WORD
        return 6 * table + 2 * max(table, BUDGET) + SLACK
    if raw["kind"] == "box_fixed_point":
        return 8 * raw["max_order"] * raw["dim"] * WORD + SLACK
    assert raw["kind"] == "fiber_fixed_point"
    return 4 * raw["fibers"] * raw["fiber_dim"] ** 2 * WORD + SLACK


@pytest.mark.parametrize("name", TRACED)
def test_cap_corner_peak_memory(name):
    entry = next(e for e in ENTRIES if e["file"] == name)
    raw = load(entry)
    bound = peak_bound(raw)
    np.random.default_rng(0)  # numpy imports its random module on first use
    tracemalloc.start()
    try:
        _, code = run_scenario(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == entry["expect_exit"]
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB above {bound / 2**20:.2f} MiB"
