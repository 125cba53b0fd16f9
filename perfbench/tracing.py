"""Outside-in tracer for the supfix layers.

`Tracer.install()` replaces every public function of the layer modules,
at every module binding that refers to it, with a wrapper that records a
span.  The package imports with `from .x import f`, so one function can
be bound in several modules (`supfix.boxes.box_H` and
`supfix.iterate.box_H`); each binding gets the same wrapper.  Two class
attributes are wrapped as well: the `UnitaryGroup.cayley` cached property
and the `CayleyGroup.symmetric` constructor.  `uninstall()` restores the
original objects.

A span is (name, start, end, parent span, case id).  Spans are kept in
flat arrays and written out by `write_spans` once the run ends.  Self time
is a span's duration minus the durations of its direct children; calls in
one thread nest, so the children never overlap and the self times of one
case add up to its root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# Layer modules whose public functions are traced; `cli` is left out
# because process start-up would swamp it.
LAYERS = (
    "scenarios",
    "runner",
    "instances",
    "isometries",
    "iterate",
    "boxes",
    "seb",
    "centers",
    "spaces",
    "unitary",
    "cocycles",
    "witnesses",
)

# (module, class, attribute) wrapped in addition to module-level functions.
CLASS_ATTRIBUTES = (
    ("unitary", "UnitaryGroup", "cayley"),
    ("cocycles", "CayleyGroup", "symmetric"),
)

ROOT_SPAN = "case"


def _solve_method(fn):
    """Span suffix for solve_witness: the `method` argument, defaults applied."""
    signature = inspect.signature(fn)

    def method(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["method"]

    return method


# Functions whose span name carries one argument, so each value is its own span.
SPLIT_BY = {"witnesses.solve_witness": _solve_method}


def least_squares_system(order: int, norming_size: int, d: int) -> tuple[int, int, int]:
    """(rows, cols, bytes) of the dense Kronecker system the least-squares
    witness solver builds: (|G| |Gamma| d) x (|Gamma| d) complex entries."""
    rows, cols = order * norming_size * d, norming_size * d
    return rows, cols, 16 * rows * cols


def _least_squares_bytes(args, kwargs, result):
    derivation = args[0] if args else kwargs["derivation"]
    _, _, size = least_squares_system(len(derivation.group), *result.t_model.shape)
    return {"witnesses.least_squares.system_bytes": size}


def _verify_samples(args, kwargs, result):
    offered = args[3] if len(args) > 3 else kwargs.get("y_samples", ())
    return {
        "centers.verify_urns_certificate.checked": result.checked_samples,
        "centers.verify_urns_certificate.offered": len(offered),
    }


# Work counts taken at a layer boundary: span name -> f(args, kwargs, result)
# returning {stat name: count}.  Stats in MAX_STATS keep the largest value
# seen, the others a sum.
STATS = {
    "isometries.group_closure": lambda a, k, r: {"isometries.group_closure.elements": len(r)},
    "unitary.unitary_closure": lambda a, k, r: {"unitary.unitary_closure.elements": len(r)},
    "iterate.iterate_box": lambda a, k, r: {"iterate.iterate_box.steps": len(r[1]) - 1},
    "seb.seb_center": lambda a, k, r: {"seb.seb_center.points": len(a[0] if a else k["points"])},
    "centers.verify_urns_certificate": _verify_samples,
    "witnesses.solve_witness.least_squares": _least_squares_bytes,
}
MAX_STATS = frozenset({"witnesses.least_squares.system_bytes"})


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_case = array("q")
        self.self_time: list[float] = []
        self.stats: dict[str, float] = defaultdict(float)
        self.case_id = -1
        self._stack: list[list] = []  # [span index, time covered by children]
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_time.append(0.0)
        return idx

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_case.append(self.case_id)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        end = perf_counter()
        top, children = self._stack.pop()
        if top != idx:
            raise RuntimeError("spans closed out of order")
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        self.self_time[self.span_name[idx]] += duration - children
        if self._stack:
            self._stack[-1][1] += duration

    def case(self, case_id: int, fn, *args):
        """Run fn(*args) as the root span of one case."""
        self.case_id = case_id
        idx = self._open(self._name_id(ROOT_SPAN))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        split = SPLIT_BY[name](fn) if name in SPLIT_BY else None
        base_id = None if split else self._name_id(name)
        ids = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            name_id = base_id
            if split is not None:
                span = f"{name}.{split(args, kwargs)}"
                name_id = ids.get(span)
                if name_id is None:
                    name_id = ids[span] = tracer._name_id(span)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            stat = STATS.get(span)
            if stat is not None:
                for key, value in stat(args, kwargs, result).items():
                    if key in MAX_STATS:
                        tracer.stats[key] = max(tracer.stats[key], value)
                    else:
                        tracer.stats[key] += value
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("supfix")
        modules = {name: importlib.import_module(f"supfix.{name}") for name in LAYERS}
        by_module_name = {mod.__name__: name for name, mod in modules.items()}
        wrappers = {}
        for mod in modules.values():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = by_module_name.get(obj.__module__)
                if layer is None or id(obj) in wrappers:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{obj.__qualname__}", obj))
        for owner in (package, *modules.values()):
            for attr, obj in list(vars(owner).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patched.append((owner, attr, obj))
                    setattr(owner, attr, entry[1])
        for layer, cls_name, attr in CLASS_ATTRIBUTES:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[attr]
            name = f"{layer}.{cls_name}.{attr}"
            if isinstance(original, functools.cached_property):
                replacement = functools.cached_property(self._wrap(name, original.func))
                replacement.__set_name__(cls, attr)
            elif isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__))
            else:
                raise TypeError(f"cannot wrap {name}")
            self._patched.append((cls, attr, original))
            setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def _columns(self):
        return (
            np.frombuffer(self.span_name, dtype=np.int32),
            np.frombuffer(self.span_parent, dtype=np.int64),
            np.frombuffer(self.span_case, dtype=np.int64),
        )

    def calls(self) -> dict[str, int]:
        names, _, _ = self._columns()
        counts = np.bincount(names, minlength=len(self.names))
        return {name: int(counts[i]) for i, name in enumerate(self.names)}

    def self_seconds(self) -> dict[str, float]:
        return {name: self.self_time[i] for i, name in enumerate(self.names)}

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Spans named child_name whose direct parent is named parent_name."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        names, parents, _ = self._columns()
        child = (names == self._ids[child_name]) & (parents >= 0)
        return int((names[parents[child]] == self._ids[parent_name]).sum())

    def cases_calling(self, name: str) -> int:
        """Number of distinct cases with at least one span named `name`."""
        if name not in self._ids:
            return 0
        names, _, cases = self._columns()
        return len(np.unique(cases[names == self._ids[name]]))

    def write_spans(self, path) -> None:
        """Save every span: name id, start, end, parent index (-1 at a root), case id."""
        names, parents, cases = self._columns()
        np.savez(
            path,
            names=np.array(self.names),
            name=names,
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=parents,
            case=cases,
        )
