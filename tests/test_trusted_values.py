"""Values the package wraps without checks, and the descent's integer bookkeeping.

`SupPoint._trusted`, `PointCloud._trusted` and `FiberPermIsometry._trusted`
wrap arrays the package has just built, skipping the copy and the checks
of the public constructors.  The trust guard runs the acceptance pack, the
first cases of every workload and the awkward clouds twice: once with the
wrappers as they are, recording what they wrap, and once with each wrapper
replaced by its public constructor, which checks its input.  No check may
fire, the checked copy must hold the wrapped array's bytes, shape and
dtype, every wrapped array must be read-only, and both runs must give the
same output bytes.

`iterate_box` decides convergence, and `IterationTrace` halving and the
reported diameters, on the boxes' integers; the bookkeeping tests hold
each of them to its `Fraction` form.
"""

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from supfix import runner
from supfix.boxes import Box
from supfix.centers import urns_center
from supfix.errors import SpaceMismatchError
from supfix.instances import random_box_group
from supfix.isometries import FiberPermIsometry
from supfix.iterate import MAX_ITER, IterationTrace, iterate_box
from supfix.spaces import PointCloud, SupPoint

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "perfbench") not in sys.path:
    sys.path.insert(0, str(ROOT / "perfbench"))

from guard import pack_results  # noqa: E402
from workloads import WORKLOADS, execute, fingerprint, make_cases  # noqa: E402

GUARD_CASES = 40
FINGERPRINT_SEEDS = (1, 2, 3)
FINGERPRINT_BOX_CASES = 60  # tests/test_workload_fingerprints.py's fixed_point count

# (class, names of the wrapped arrays in the order _trusted takes them)
WRAPPERS = {
    SupPoint: ("fibers",),
    PointCloud: ("points",),
    FiberPermIsometry: ("perm", "maps", "trans"),
}


def outputs(awkward_clouds) -> list[str]:
    """Digests of everything the guard runs, in a fixed order."""
    out = [f"{name}:{code}:{digest}"
           for name, _, code, digest in pack_results(ROOT / "scenarios" / "acceptance")]
    for workload in WORKLOADS:
        for case in make_cases(workload, 1, GUARD_CASES):
            out.append(fingerprint(*execute(case)))
    for k in range(1, 9):
        for name, pts in awkward_clouds(k).items():
            center = urns_center(PointCloud(pts)).fibers
            out.append(f"{k}:{name}:{hashlib.sha256(center.tobytes()).hexdigest()}")
    return out


def spy_on_wrappers(patch: pytest.MonkeyPatch) -> list:
    """Every _trusted wrapper, spied on: each wrapped object is recorded."""
    seen = []
    for cls in WRAPPERS:
        def spy(cls, *arrays, _original=cls._trusted.__func__):
            obj = _original(cls, *arrays)
            seen.append(obj)
            return obj

        patch.setattr(cls, "_trusted", classmethod(spy))
    return seen


def check_in_wrappers(patch: pytest.MonkeyPatch) -> list:
    """Every _trusted wrapper replaced by its public constructor, which
    checks the input; each (input arrays, checked object) is recorded."""
    seen = []
    for cls in WRAPPERS:
        def public(cls, *arrays):
            obj = cls(*arrays)
            seen.append((arrays, obj))
            return obj

        patch.setattr(cls, "_trusted", classmethod(public))
    return seen


class TestTrustGuard:
    def test_trusted_values_pass_the_public_checks(self, awkward_clouds, monkeypatch):
        with monkeypatch.context() as patch:
            spied = spy_on_wrappers(patch)
            trusted = outputs(awkward_clouds)
        with monkeypatch.context() as patch:
            made = check_in_wrappers(patch)
            public = outputs(awkward_clouds)

        assert {type(obj) for obj in spied} == set(WRAPPERS)
        for obj in spied:
            for name in WRAPPERS[type(obj)]:
                arr = getattr(obj, name)
                assert not arr.flags.writeable, (type(obj).__name__, name)
                assert arr.flags.c_contiguous, (type(obj).__name__, name)

        assert len(made) == len(spied)
        for arrays, obj in made:
            for given, name in zip(arrays, WRAPPERS[type(obj)]):
                want = getattr(obj, name)
                assert (given.shape, given.dtype) == (want.shape, want.dtype), name
                assert given.tobytes() == want.tobytes(), name

        assert trusted == public

    def test_public_constructors_still_check(self):
        with pytest.raises(ValueError, match="finite"):
            SupPoint(np.array([[1.0], [np.inf]]))
        with pytest.raises(ValueError, match="finite"):
            PointCloud(np.array([[[np.nan]], [[0.0]]]))
        with pytest.raises(SpaceMismatchError):
            SupPoint([[1.0], [2.0, 3.0]])
        with pytest.raises(SpaceMismatchError):
            PointCloud([np.zeros((2, 1)), np.zeros((3, 1))])
        with pytest.raises(ValueError, match="orthogonal"):
            FiberPermIsometry(np.arange(2), np.full((2, 1, 1), 2.0), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="permutation"):
            FiberPermIsometry(np.array([0, 0]), np.ones((2, 1, 1)), np.zeros((2, 1)))
        with pytest.raises(SpaceMismatchError):
            FiberPermIsometry(np.arange(2), np.ones((2, 1, 1)), np.zeros((3, 1)))


def assert_fraction_forms(trace: IterationTrace, tol, result: dict | None = None):
    """The trace's integer decisions against the same decisions on Fractions."""
    diams = [box.diameter() for box in trace.boxes]
    assert [Fraction(w, d) for w, d in trace.widths] == diams
    assert trace.diameters_exact == tuple(diams)
    assert all(type(d) is Fraction for d in trace.diameters_exact)
    tol_exact = Fraction(tol)
    if trace.terminated == "converged":
        assert diams[-1] <= tol_exact and len(diams) <= MAX_ITER + 1
    else:
        assert len(diams) == MAX_ITER + 1
    assert all(not d <= tol_exact for d in diams[:-1])
    halving = all(b <= a / 2 for a, b in zip(diams, diams[1:]))
    assert trace.halving_exact is halving
    assert trace.diameter(0) == float(diams[0])
    assert trace.diameter(-1) == float(diams[-1])
    if result is not None:
        assert result["initial_diameter"] == float(diams[0])
        assert result["final_diameter"] == float(diams[-1])
        assert result["halving_exact"] is halving
        assert result["terminated"] == trace.terminated
        assert result["iterations"] == len(diams) - 1


def has_exact_halving(trace: IterationTrace) -> bool:
    diams = trace.diameters_exact
    return any(b == a / 2 for a, b in zip(diams, diams[1:]))


class TestIntegerBookkeeping:
    def test_every_trace_of_the_fingerprint_seeds(self, monkeypatch):
        traces = []

        def recorded(group, x0, tol):
            fp, trace = iterate_box(group, x0, tol=tol)
            traces.append((trace, tol))
            return fp, trace

        monkeypatch.setattr(runner, "iterate_box", recorded)
        halved = 0
        for seed in FINGERPRINT_SEEDS:
            for case in make_cases("fixed_point", seed, FINGERPRINT_BOX_CASES):
                before = len(traces)
                report, code = execute(case)
                if len(traces) > before:
                    trace, tol = traces[-1]
                    assert_fraction_forms(trace, tol, report["result"])
                    halved += has_exact_halving(trace)
        assert len(traces) > 100 and halved > 0

    def test_a_diameter_exactly_at_tol_converges_there(self):
        group, x0 = random_box_group(3)
        _, full = iterate_box(group, x0)
        for step in (0, 1, len(full) // 2, len(full) - 1):
            tol = float(full.diameters_exact[step])
            assert Fraction(tol) == full.diameters_exact[step]
            _, trace = iterate_box(group, x0, tol=tol)
            assert trace.terminated == "converged" and len(trace) == step + 1
            assert_fraction_forms(trace, tol)

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("tol", [5e-324, 1e300, -1.0])
    def test_extreme_tolerances(self, tol, wide):
        """From the grid seed point, and from a seed point with coordinates
        from 1e-12 to 1e12, whose boxes have denominators past 2^80."""
        group, x0 = random_box_group(5)
        if wide:
            x0 = SupPoint(np.geomspace(1e-12, 1e12, x0.m) * np.resize([1.0, -1.0], x0.m))
        _, trace = iterate_box(group, x0, tol=tol)
        assert_fraction_forms(trace, tol)
        if tol == 1e300:
            assert trace.terminated == "converged" and len(trace) == 1
        if tol < 0:
            assert trace.terminated == "max_iter"

    def test_a_run_that_stops_at_max_iter(self):
        group, x0 = random_box_group(3)
        _, trace = iterate_box(group, x0, tol=-1.0)
        assert trace.terminated == "max_iter" and len(trace) == MAX_ITER + 1
        assert_fraction_forms(trace, -1.0)

    @pytest.mark.parametrize("his, halves", [
        ([1.0, 0.5, 0.25], True),  # exactly half, twice
        ([1.0, 0.5, 0.5], False),
        ([3.0, 1.5 + 2.0 ** -52, 0.5], False),  # a hair above half
        ([3.0, 1.5 - 2.0 ** -52, 0.5], True),
        ([1e300, 5e299, 0.0], True),
        ([5e-324, 0.0], True),
    ])
    def test_hand_built_halving(self, his, halves):
        boxes = tuple(Box(1, [0.0], [h]) for h in his)
        widths = tuple(box.diameter().as_integer_ratio() for box in boxes)
        trace = IterationTrace(boxes, widths, "converged")
        assert trace.halving_exact is halves
        diams = trace.diameters_exact
        assert halves is all(b <= a / 2 for a, b in zip(diams, diams[1:]))
        assert [trace.diameter(i) for i in range(len(his))] == his
