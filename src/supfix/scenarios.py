"""Scenario file format: JSON descriptions of runnable problem instances.

Each scenario is one JSON object with a "kind" field choosing the solver
path and a "seed" pinning the random instance.  Structural validation
follows the kind's JSON Schema in `SCENARIO_SCHEMAS`.  Each schema is
compiled once into a plain Python check that accepts only plain JSON
values the schema accepts; whatever it does not accept goes to
jsonschema, which is imported only then, to word the rejection (or to
accept what the compiled check left to it, such as a dict subclass).  An
optional field's value when absent is its JSON Schema "default"
annotation, which validation does not apply; `validate_scenario` fills
the defaults in after validation.  The handful of semantic rules a
schema cannot express (finite numbers, bound ordering, length
agreement) are checked here as well.  The schemas restate no names:
the matrix groups, the witness methods and the group-algebra families
are read from `instances` and `witnesses`, and a "family:N" group name
is checked by the package's own parser (`instances._cayley_size`, which
`cayley_group` calls too), so a name is refused here exactly when the
builder would refuse it.  All violations raise ScenarioFormatError,
which the runner maps to exit code 4.  Integers written as floats (8.0,
which JSON Schema counts as an integer) become ints.
"""

from __future__ import annotations

import math
import operator
import re
from functools import cache

from .errors import ScenarioFormatError
from .instances import _CAYLEY_FAMILIES, _NAMED_GENERATORS, _cayley_size
from .witnesses import WITNESS_METHODS

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
            "group": {"enum": list(_NAMED_GENERATORS)},
            "method": {"enum": list(WITNESS_METHODS), "default": "least_squares"},
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
            "group": {"type": "string", "pattern": f"^({'|'.join(_CAYLEY_FAMILIES)}):[0-9]+$"},
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


def validate_scenario(obj) -> dict:
    """Validate and return the scenario with defaults filled in."""
    if not isinstance(obj, dict):
        raise ScenarioFormatError("scenario must be a JSON object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in SCENARIO_SCHEMAS:
        raise ScenarioFormatError(
            f"unknown scenario kind {kind!r}; expected one of {sorted(SCENARIO_SCHEMAS)}"
        )
    if not _accepts(kind)(obj):
        from jsonschema.exceptions import best_match

        error = best_match(_validator(kind).iter_errors(obj))
        if error is not None:
            raise ScenarioFormatError(f"invalid {kind} scenario: {error.message}")

    merged = {**_defaults(kind), **obj}
    for key, value in obj.items():
        if key in _integer_fields(kind):
            merged[key] = int(value)
        elif not _finite(value):
            raise ScenarioFormatError(f"{key} must hold finite numbers, got {value!r}")
    if kind == "group_algebra_derivation":
        try:  # the pattern's $ admits a final newline, which the parser refuses
            _cayley_size(merged["group"])
        except ValueError as exc:
            raise ScenarioFormatError(str(exc)) from None
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
    """jsonschema's validator of the kind, loaded when a scenario is not accepted."""
    import jsonschema

    schema = SCENARIO_SCHEMAS[kind]
    return jsonschema.validators.validator_for(schema)(schema)


@cache
def _accepts(kind: str):
    return _compile(SCENARIO_SCHEMAS[kind])


# The JSON Schema keywords `_compile` covers: those SCENARIO_SCHEMAS uses.
# "default" is an annotation and constrains nothing.
_KEYWORDS = frozenset({
    "type", "const", "enum", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
    "pattern", "required", "properties", "additionalProperties", "items", "default",
})

# Exact JSON types only: a subclass, or a bool where a number is due, is
# left to jsonschema.  An integral float is an integer, as in Draft 2020-12.
_IS_TYPE = {
    "integer": lambda v: type(v) is int or (type(v) is float and v.is_integer()),
    "number": lambda v: type(v) is int or type(v) is float,
    "boolean": lambda v: type(v) is bool,
    "string": lambda v: type(v) is str,
    "array": lambda v: type(v) is list,
    "object": lambda v: type(v) is dict,
}

# The "type" each type-specific keyword must come with, so that it is
# tested only on a value that passed that type's test.
_NEEDS_TYPE = {
    "minimum": ("integer", "number"),
    "maximum": ("integer", "number"),
    "exclusiveMinimum": ("integer", "number"),
    "exclusiveMaximum": ("integer", "number"),
    "pattern": ("string",),
    "items": ("array",),
    "required": ("object",),
    "properties": ("object",),
    "additionalProperties": ("object",),
}

# The comparison by which each bound fails a value, as jsonschema makes it
# (so NaN fails none).
_FAILS_BOUND = {
    "minimum": operator.lt,
    "maximum": operator.gt,
    "exclusiveMinimum": operator.le,
    "exclusiveMaximum": operator.ge,
}


def _compile(schema: dict):
    """A check that accepts a value only if the schema accepts it.

    It accepts every value built from plain JSON types (dict, list, str,
    int, float, bool) that the schema accepts, and rejects the rest; a
    rejection is final only once jsonschema agrees.  A keyword outside
    `_KEYWORDS`, or one without the type it needs, raises ValueError:
    skipping it would accept what the schema refuses.
    """
    if type(schema) is not dict:
        raise ValueError(f"no compiled check for the schema {schema!r}")
    unknown = sorted(schema.keys() - _KEYWORDS)
    if unknown:
        raise ValueError(f"no compiled check for the schema keywords {unknown}")
    kind = schema.get("type")
    if kind is not None and not (isinstance(kind, str) and kind in _IS_TYPE):
        raise ValueError(f"no compiled check for the type {kind!r}")
    for keyword in sorted(schema.keys() & _NEEDS_TYPE.keys()):
        if kind not in _NEEDS_TYPE[keyword]:
            raise ValueError(f"{keyword} needs a type of {_NEEDS_TYPE[keyword]}, not {kind!r}")

    tests = [] if kind is None else [_IS_TYPE[kind]]
    if "const" in schema:
        tests.append(_one_of([schema["const"]]))
    if "enum" in schema:
        tests.append(_one_of(schema["enum"]))
    for keyword, fails in _FAILS_BOUND.items():
        if keyword in schema:
            tests.append(lambda v, fails=fails, bound=schema[keyword]: not fails(v, bound))
    if "pattern" in schema:
        search = re.compile(schema["pattern"]).search  # jsonschema's re.search
        tests.append(lambda v: search(v) is not None)
    if "items" in schema:
        item = _compile(schema["items"])
        tests.append(lambda v: all(map(item, v)))
    if kind == "object":
        tests.append(_members(schema))
    if len(tests) == 1:
        return tests[0]
    return lambda v: all(test(v) for test in tests)


def _one_of(values: list):
    if not all(type(c) is str for c in values):
        raise ValueError(f"const and enum are compiled for strings only, not {values!r}")
    allowed = frozenset(values)
    return lambda v: type(v) is str and v in allowed


def _members(schema: dict):
    """The check of an object schema's required, properties and additionalProperties."""
    props = {key: _compile(sub) for key, sub in schema.get("properties", {}).items()}
    required = tuple(schema.get("required", ()))
    extra = schema.get("additionalProperties", True)
    if type(extra) is not bool:
        raise ValueError(f"additionalProperties is compiled for booleans only, not {extra!r}")

    def check(v: dict) -> bool:
        for key, value in v.items():
            test = props.get(key)
            if not (extra if test is None else test(value)):
                return False
        return all(key in v for key in required)

    return check


def validate_suite(obj) -> list[dict]:
    if isinstance(obj, dict):
        if "scenarios" not in obj:
            raise ScenarioFormatError('suite object must carry a "scenarios" array')
        obj = obj["scenarios"]
    if not isinstance(obj, list) or not obj:
        raise ScenarioFormatError("suite must be a nonempty array of scenarios")
    return [validate_scenario(s) for s in obj]
