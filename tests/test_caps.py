"""Schema-cap corners end in their recorded exit codes.

`scenarios/caps/` holds each kind at its schema caps (box dim 64 with
max_order 512, fiber 16 x 8 with max_order 512 and with the unmeetable
max_order 1, 2 and 3, `symmetric:5`, `cyclic:512`, and the largest
certificate), with its own manifest.  It is not the acceptance pack, so
no acceptance digest covers it.  The manifest also lists the known slow
fiber seeds, 77 and 6, which take seconds each; they are checked for
schema validity here but not run.  Where the manifest records an error
text, the report must carry it unchanged.
"""

import json
from pathlib import Path

import pytest

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
