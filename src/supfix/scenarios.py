"""Scenario file format: JSON descriptions of runnable problem instances.

Each scenario is one JSON object with a "kind" field choosing the solver
path and a "seed" pinning the random instance.  Structural validation is
jsonschema, with one validator per kind built on first use.  An optional
field's value when absent is its JSON Schema "default" annotation, which
jsonschema does not apply; `validate_scenario` fills the defaults in
after validation.  The handful of semantic rules a schema cannot express
(finite numbers, bound ordering, length agreement, group sizes) are
checked here as well.  All violations raise ScenarioFormatError, which
the runner maps to exit code 4.  Integers written as floats (8.0, which
JSON Schema counts as an integer) become ints.
"""

from __future__ import annotations

import math
from functools import cache

import jsonschema

from .errors import ScenarioFormatError

_SEED = {"type": "integer", "minimum": 0, "maximum": 2**32 - 1}

SCENARIO_SCHEMAS: dict[str, dict] = {
    "box_fixed_point": {
        "type": "object",
        "additionalProperties": False,
        "required": ["kind", "seed"],
        "properties": {
            "kind": {"const": "box_fixed_point"},
            "seed": _SEED,
            "dim": {"type": "integer", "minimum": 1, "maximum": 64, "default": 8},
            "max_order": {"type": "integer", "minimum": 1, "maximum": 512, "default": 48},
            "tol": {"type": "number", "exclusiveMinimum": 0.0, "default": 1e-10},
            "sample_box": {
                "type": "object",
                "additionalProperties": False,
                "required": ["lo", "hi"],
                "properties": {
                    "lo": {"type": "array", "items": {"type": "number", "minimum": -2.0, "maximum": 2.0}},
                    "hi": {"type": "array", "items": {"type": "number", "minimum": -2.0, "maximum": 2.0}},
                },
            },
        },
    },
    "fiber_fixed_point": {
        "type": "object",
        "additionalProperties": False,
        "required": ["kind", "seed"],
        "properties": {
            "kind": {"const": "fiber_fixed_point"},
            "seed": _SEED,
            "fibers": {"type": "integer", "minimum": 1, "maximum": 16, "default": 5},
            "fiber_dim": {"type": "integer", "minimum": 1, "maximum": 8, "default": 3},
            "max_order": {"type": "integer", "minimum": 1, "maximum": 512, "default": 48},
            "tol": {"type": "number", "exclusiveMinimum": 0.0, "default": 1e-9},
        },
    },
    "matrix_derivation": {
        "type": "object",
        "additionalProperties": False,
        "required": ["kind", "seed", "group"],
        "properties": {
            "kind": {"const": "matrix_derivation"},
            "seed": _SEED,
            "group": {"enum": ["q8", "s3", "c12"]},
            "method": {
                "enum": ["orbit_center", "averaging", "least_squares"],
                "default": "least_squares",
            },
            "corrupt": {"type": "boolean", "default": False},
            "check_cocycle": {"type": "boolean", "default": True},
            "similarity": {"type": "boolean", "default": True},
        },
    },
    "group_algebra_derivation": {
        "type": "object",
        "additionalProperties": False,
        "required": ["kind", "seed", "group"],
        "properties": {
            "kind": {"const": "group_algebra_derivation"},
            "seed": _SEED,
            "group": {"type": "string", "pattern": "^(cyclic|symmetric):[0-9]+$"},
            "corrupt": {"type": "boolean", "default": False},
            "check_cocycle": {"type": "boolean", "default": True},
        },
    },
    "urns_certificate": {
        "type": "object",
        "additionalProperties": False,
        "required": ["kind", "seed"],
        "properties": {
            "kind": {"const": "urns_certificate"},
            "seed": _SEED,
            "fibers": {"type": "integer", "minimum": 1, "maximum": 16, "default": 4},
            "fiber_dim": {"type": "integer", "minimum": 1, "maximum": 8, "default": 3},
            "points": {"type": "integer", "minimum": 2, "maximum": 200, "default": 10},
            "samples": {"type": "integer", "minimum": 0, "maximum": 1000, "default": 50},
            "constant": {"type": "number", "exclusiveMinimum": 0.0, "exclusiveMaximum": 1.0},
        },
    },
}

# Largest N accepted in a group_algebra_derivation "family:N" group name.
_GROUP_SIZE_BOUNDS = {"cyclic": 512, "symmetric": 5}


def validate_scenario(obj) -> dict:
    """Validate and return the scenario with defaults filled in."""
    if not isinstance(obj, dict):
        raise ScenarioFormatError("scenario must be a JSON object")
    kind = obj.get("kind")
    if kind not in SCENARIO_SCHEMAS:
        raise ScenarioFormatError(
            f"unknown scenario kind {kind!r}; expected one of {sorted(SCENARIO_SCHEMAS)}"
        )
    error = jsonschema.exceptions.best_match(_validator(kind).iter_errors(obj))
    if error is not None:
        raise ScenarioFormatError(f"invalid {kind} scenario: {error.message}")

    merged = {**_defaults(kind), **obj}
    for key, value in obj.items():
        if key in _integer_fields(kind):
            merged[key] = int(value)
        elif not _finite(value):
            raise ScenarioFormatError(f"{key} must hold finite numbers, got {value!r}")
    if kind == "group_algebra_derivation":
        family, _, digits = merged["group"].partition(":")
        bound = _GROUP_SIZE_BOUNDS[family]
        digits = digits.lstrip("0") or "0"  # length check first: int() refuses huge strings
        if len(digits) > len(str(bound)) or not 1 <= int(digits) <= bound:
            raise ScenarioFormatError(
                f"group {merged['group']!r} is out of range; {family}:N needs 1 <= N <= {bound}"
            )
    if kind == "box_fixed_point" and "sample_box" in merged:
        box = merged["sample_box"]
        lo, hi = box["lo"], box["hi"]
        if len(lo) != len(hi):
            raise ScenarioFormatError("sample_box lo and hi must have the same length")
        if len(lo) != merged["dim"]:
            raise ScenarioFormatError(
                f"sample_box has {len(lo)} coordinates but dim is {merged['dim']}"
            )
        for i, (a, b) in enumerate(zip(lo, hi)):
            if a > b:
                raise ScenarioFormatError(
                    f"sample_box coordinate {i} has lo={a} > hi={b}"
                )
    return merged


def _finite(value) -> bool:
    """Whether every number inside a schema-checked JSON value is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return True


@cache
def _integer_fields(kind: str) -> frozenset[str]:
    props = SCENARIO_SCHEMAS[kind]["properties"]
    return frozenset(key for key, prop in props.items() if prop.get("type") == "integer")


@cache
def _defaults(kind: str) -> dict:
    """The schema's "default" annotations of the kind, by field."""
    props = SCENARIO_SCHEMAS[kind]["properties"]
    return {key: prop["default"] for key, prop in props.items() if "default" in prop}


@cache
def _validator(kind: str):
    schema = SCENARIO_SCHEMAS[kind]
    return jsonschema.validators.validator_for(schema)(schema)


def validate_suite(obj) -> list[dict]:
    if isinstance(obj, dict):
        if "scenarios" not in obj:
            raise ScenarioFormatError('suite object must carry a "scenarios" array')
        obj = obj["scenarios"]
    if not isinstance(obj, list) or not obj:
        raise ScenarioFormatError("suite must be a nonempty array of scenarios")
    return [validate_scenario(s) for s in obj]
