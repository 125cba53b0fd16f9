"""The compiled schema check against jsonschema, its keyword guard, and the lazy import.

`scenarios._compile` turns each kind's JSON Schema into a Python check
that may only accept; a scenario it does not accept goes to jsonschema,
which words the rejection.  Scenarios are drawn by mutating valid ones
(bounds +-1, integral floats, bools and non-finite numbers, extra and
missing keys, wrong const and enum values, pattern near-misses, odd
sample_box items, dict and list subclasses), and each must come out of
`validate_scenario` exactly as it does from the jsonschema-only path.
"""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supfix
from supfix import instances, scenarios, witnesses
from supfix.errors import ScenarioFormatError
from supfix.scenarios import SCENARIO_SCHEMAS, validate_scenario

VALID = {
    "box_fixed_point": {"kind": "box_fixed_point", "seed": 7, "dim": 2, "max_order": 24,
                        "tol": 1e-10, "sample_box": {"lo": [-1.0, 0], "hi": [1, 0.5]}},
    "fiber_fixed_point": {"kind": "fiber_fixed_point", "seed": 7, "fibers": 3, "fiber_dim": 2,
                          "max_order": 24, "tol": 1e-9},
    "matrix_derivation": {"kind": "matrix_derivation", "seed": 7, "group": "s3",
                          "method": "averaging", "corrupt": False, "check_cocycle": True,
                          "similarity": False},
    "group_algebra_derivation": {"kind": "group_algebra_derivation", "seed": 7,
                                 "group": "cyclic:6", "corrupt": False, "check_cocycle": True},
    "urns_certificate": {"kind": "urns_certificate", "seed": 7, "fibers": 2, "fiber_dim": 3,
                         "points": 5, "samples": 10, "constant": 0.9},
}

ODD = [None, "", "8", [], {}, True, False, 0, 1, -1, 1.5, -0.0, math.nan, math.inf, -math.inf,
       2**64]
NAMES = ["cyclic:1", "cyclic:512", "cyclic:0007", "symmetric:5", "cyclic:5\n", "symmetric:3\n",
         "cyclic:", "Cyclic:5", "cyclic:5 ", " cyclic:5", "cyclic:\u0665", "cyclic:-5",
         "cyclic:+5", "cyclic:5:3", "cyclic:0", "dihedral:3", "cyclic5", "Q8", "q8 ", "su2",
         "least squares", "box_fixed_point"]


class Dict(dict):
    pass


class List(list):
    pass


def values_for(schema: dict):
    """Values at the edges of a field's schema, or of other types."""
    edge = [schema.get("default", 0), schema.get("const", "q8"), *schema.get("enum", [])]
    for bound in ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"):
        if bound in schema:
            b = schema[bound]
            edge += [b - 1, b, b + 1, float(b - 1), float(b), float(b + 1), b - 1e-9, b + 1e-9]
    if schema.get("type") == "number":
        edge += [5e-324, 1e308, math.inf, math.nan]
    if schema.get("type") == "boolean":
        edge += [True, False, 0, 1]
    if {"pattern", "enum", "const"} & schema.keys():
        edge += NAMES
    return st.sampled_from(edge) | st.sampled_from(ODD)


def paths(scenario: dict, schema: dict):
    """(path, schema) of every top-level field of the schema and every
    sample_box member and coordinate present."""
    found = [((key,), sub) for key, sub in schema["properties"].items()]
    box = scenario.get("sample_box")
    if isinstance(box, dict):
        for side in ("lo", "hi"):
            if isinstance(box.get(side), list):
                items = schema["properties"]["sample_box"]["properties"][side]["items"]
                found.append((("sample_box", side), {}))
                found += [(("sample_box", side, i), items) for i in range(len(box[side]))]
    return found


def _parent(scenario, path):
    for step in path[:-1]:
        scenario = scenario[step]
    return scenario


@st.composite
def mutated(draw, kind: str):
    scenario = copy.deepcopy(VALID[kind])
    schema = SCENARIO_SCHEMAS[kind]
    for _ in range(draw(st.integers(1, 2))):
        action = draw(st.sampled_from(["set", "set", "set", "drop", "extra", "subclass"]))
        path, sub = draw(st.sampled_from(paths(scenario, schema)))
        parent = _parent(scenario, path)
        if action == "set":
            parent[path[-1]] = draw(values_for(sub))
        elif action == "drop" and isinstance(parent, dict):
            parent.pop(path[-1], None)
        elif action == "extra":
            other = draw(st.sampled_from(sorted({key for s in SCENARIO_SCHEMAS.values()
                                                 for key in s["properties"]} | {"bogus"})))
            scenario[other] = draw(values_for({}))
        elif action == "subclass":
            target = parent if len(path) > 1 else scenario
            wrapped = (Dict if isinstance(target, dict) else List)(target)
            if len(path) > 1:
                _parent(scenario, path[:-1])[path[-2]] = wrapped
            else:
                scenario = wrapped
    return scenario


def outcome(obj):
    """What validate_scenario makes of obj: ("ok", repr of the result) or ("error", text)."""
    try:
        return "ok", repr(validate_scenario(obj))
    except ScenarioFormatError as exc:
        return "error", str(exc)


def reference(obj):
    """The jsonschema-only path: validate_scenario with a compiled check that accepts nothing."""
    saved = scenarios._accepts
    scenarios._accepts = lambda kind: lambda value: False
    try:
        return outcome(obj)
    finally:
        scenarios._accepts = saved


def plain(value) -> bool:
    """Whether value is built from exact JSON types only."""
    if type(value) is dict:
        return all(type(k) is str and plain(v) for k, v in value.items())
    if type(value) is list:
        return all(map(plain, value))
    return type(value) in (str, int, float, bool, type(None))


@pytest.mark.parametrize("kind", sorted(SCENARIO_SCHEMAS))
def test_compiled_check_agrees_with_jsonschema(kind):
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(mutated(kind))
    def run(scenario):
        assert outcome(scenario) == reference(scenario)
        kind_now = scenario.get("kind")
        if not (isinstance(kind_now, str) and kind_now in SCENARIO_SCHEMAS):
            return
        schema = SCENARIO_SCHEMAS[kind_now]
        accepted = scenarios._accepts(kind_now)(scenario)
        valid = jsonschema.validators.validator_for(schema)(schema).is_valid(scenario)
        assert accepted <= valid  # never accepts what jsonschema rejects
        if plain(scenario):
            assert accepted == valid  # and leaves no plain JSON scenario to it

    run()


@pytest.mark.parametrize("kind", sorted(SCENARIO_SCHEMAS))
def test_every_schema_compiles_and_accepts_a_valid_scenario(kind):
    check = scenarios._compile(SCENARIO_SCHEMAS[kind])
    assert check(VALID[kind]) and check({**VALID[kind], "seed": 8.0})
    assert not check({**VALID[kind], "seed": True})


@pytest.mark.parametrize(
    "path, planted, message",
    [
        ((), {"anyOf": [{"required": ["dim"]}]}, "keywords"),
        (("dim",), {"multipleOf": 2}, "keywords"),
        (("sample_box", "lo", "items"), {"$ref": "#"}, "keywords"),
        (("tol",), {"type": ["number", "null"]}, "type"),
        (("sample_box",), {"minimum": 0}, "minimum needs a type"),
        (("seed",), {"type": "string"}, "needs a type"),
        (("sample_box", "lo"), {"items": False}, "schema"),
        (("sample_box",), {"additionalProperties": {"type": "number"}}, "booleans"),
        (("kind",), {"const": 1}, "strings"),
    ],
)
def test_a_keyword_outside_the_compiled_set_raises(path, planted, message):
    schema = copy.deepcopy(SCENARIO_SCHEMAS["box_fixed_point"])
    target = schema
    for key in path:
        target = target["properties"][key] if key != "items" else target["items"]
    target.update(planted)
    with pytest.raises(ValueError, match=message):
        scenarios._compile(schema)


def test_names_the_schema_shares_with_the_package_agree():
    """The schema reads the names and bounds that the package defines; were
    they to drift apart, a schema-valid scenario would end in a traceback,
    not an exit code."""
    matrix = SCENARIO_SCHEMAS["matrix_derivation"]["properties"]
    assert sorted(matrix["group"]["enum"]) == sorted(instances._NAMED_GENERATORS)
    assert tuple(matrix["method"]["enum"]) == witnesses.WITNESS_METHODS
    for family, order in (("cyclic", int), ("symmetric", math.factorial)):
        bound = instances._CAYLEY_FAMILIES[family]
        assert len(instances.cayley_group(f"{family}:{bound}")) == order(bound)
        with pytest.raises(ValueError, match=family):
            instances.cayley_group(f"{family}:{bound + 1}")


FRESH = """
import json, sys
from supfix import run_scenario
for scenario in json.loads(sys.argv[1]):
    report, code = run_scenario(scenario)
    assert code == 0, report
loaded = "jsonschema" in sys.modules
report, code = run_scenario(json.loads(sys.argv[2]))
print(json.dumps([loaded, "jsonschema" in sys.modules, code, report["result"]["error"]]))
"""


def test_jsonschema_is_imported_only_to_word_a_rejection():
    valid = [VALID[kind] for kind in sorted(VALID)]
    bad = {"kind": "fiber_fixed_point", "seed": 1, "fibers": 0}
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(bad, SCENARIO_SCHEMAS[bad["kind"]])
    src = str(Path(supfix.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", FRESH, json.dumps(valid), json.dumps(bad)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    loaded_before, loaded_after, code, error = json.loads(proc.stdout)
    assert (loaded_before, loaded_after, code) == (False, True, 4)
    assert error == f"invalid fiber_fixed_point scenario: {want.value.message}"
