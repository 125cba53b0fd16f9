"""supfix benchmark: closed-loop workloads through the public API.

One run measures one workload in its own process, one client, closed
loop: the next case starts when the previous one has its verdict.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

`--trace 0` runs for --seconds, longer if needed to time 100 cases (so ten
lie beyond the 90th percentile) and to end on a whole number of the
workload's case cycles (so its mix is fixed), and prints every end-to-end
metric of BENCHMARK.json.  A run that cannot do both within MAX_STRETCH x
--seconds counts as failed.  Case latencies, cases_per_s and setup_s are
host-speed scaled (hostspeed.py); the wall-clock figures are printed
beside them.
cases_per_s is cases divided by the summed scaled case latencies.
failed_ratio is printed but is not a BENCHMARK.json metric, because it
reads 0 on a correct run; failures count in `failed` instead.

`--trace 1` runs a fixed number of cases twice, untraced and then traced,
and prints every per-layer metric with the tracing overhead.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Each run also checks the acceptance pack (guard.py),
untimed.  A record of the run, with its environment, is written to
perfbench/out/.  `--workload all` runs each workload in a child process
and then prints every metric of every workload.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported, here and in every
# child process, which inherits the environment.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACK = ROOT / "scenarios" / "acceptance"
OUT = HERE / "out"

MIN_SAMPLES = 100  # ten samples beyond the 90th percentile
MAX_STRETCH = 4  # a run may take up to 4 x --seconds to end on enough cases
SETUP_REPEATS = 9  # set-ups per run: this process and eight fresh ones
# Cases per traced pass, per second of --seconds: each pass then takes
# about --seconds untraced at the commit that added the benchmark.
TRACE_CASES_PER_S = {"fixed_point": 15, "certify": 15, "witness": 20, "witness_scale": 3}


def _timed_setup(workload: str, seed: int):
    """Import supfix and generate the workload's cases.

    Returns (cases, wall seconds, calibration unit timed just after).  The
    unit needs numpy, whose import is part of set-up, so it cannot be timed
    before.
    """
    start = time.perf_counter()
    import workloads  # imports supfix

    cases = workloads.make_cases(workload, seed)
    seconds = time.perf_counter() - start
    import hostspeed

    return cases, seconds, hostspeed.unit_seconds()


def _probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up in a fresh interpreter: (wall seconds, calibration unit around it).

    The unit is timed here just before the interpreter starts and there
    just after its set-up; the mean of the two is returned.
    """
    import hostspeed

    before = hostspeed.unit_seconds()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, after = map(float, proc.stdout.split()[-2:])
    return seconds, (before + after) / 2


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import importlib.metadata

    import numpy

    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "seed": seed,
    }


class Tally:
    """Latencies, verdicts and failures of the cases of one pass."""

    def __init__(self, keep_outputs: bool = False):
        import hostspeed

        self.clock = hostspeed.ScaledClock()
        self.latencies: list[float] = []  # wall seconds
        self.scaled: list[float] = []  # host-speed scaled seconds
        self.labels: list[str] = []
        self.fingerprints: list[str] = []
        self.failed = 0
        self.problems: Counter = Counter()
        self.outputs: list | None = [] if keep_outputs else None
        self.elapsed = 0.0

    def run(self, workloads, index: int, case, wrap=None) -> None:
        """Run one case, time it and check its output."""
        wall = scaled = 0.0

        def checkpoint():  # ends a timed segment; the calibration after it is untimed
            nonlocal wall, scaled
            segment = self.clock.stop()
            wall += segment[0]
            scaled += segment[1]
            self.clock.start()

        self.labels.append(case.label)
        self.clock.start()
        try:
            if wrap is None:
                output, code = workloads.execute(case, checkpoint)
            else:
                output, code = wrap(index, workloads.execute, case, checkpoint)
        except Exception as exc:  # a case that raises is a failed case, not a crash
            output = None
            self._fail(case, f"raised {type(exc).__name__}: {exc}")
        finally:
            segment = self.clock.stop()
            self.latencies.append(wall + segment[0])
            self.scaled.append(scaled + segment[1])
        if output is None:
            self.fingerprints.append("raised")
            return
        self.fingerprints.append(workloads.fingerprint(output, code))
        if self.outputs is not None:
            self.outputs.append(output)
        problem = workloads.check(case, output, code)
        if problem is not None:
            self._fail(case, problem)

    def _fail(self, case, problem: str) -> None:
        self.failed += 1
        self.problems[f"{case.label}: {problem}"] += 1


def measure(workloads, cases, done, wrap=None, keep_outputs: bool = False) -> Tally:
    """Closed loop over `cases` until done(elapsed seconds, cases completed).

    The host is calibrated after every timed segment (hostspeed.py).
    """
    tally = Tally(keep_outputs)
    start = time.perf_counter()
    i = 0
    while not done(time.perf_counter() - start, i):
        tally.run(workloads, i, cases[i % len(cases)], wrap)
        i += 1
    tally.elapsed = time.perf_counter() - start
    return tally


def _percentile_ms(latencies: list[float], q: int) -> float:
    return float(statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _metric_specs(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in _spec()[kind]}


def layer_metrics(tracer, names) -> dict[str, float]:
    """Value of each per-layer metric name from a finished traced pass."""
    calls = tracer.calls()
    self_s = tracer.self_seconds()
    stats = tracer.stats
    values = {}
    for name in names:
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            value = calls.get(span, 0)
        elif stat == "self_s":
            value = self_s.get(span, 0.0)
        elif stat == "calls_per_case":
            cases = tracer.cases_calling(span)
            value = calls.get(span, 0) / cases if cases else 0.0
        elif stat == "closures_per_call":
            n = calls.get(span, 0)
            value = tracer.children_of(span, "isometries.group_closure") / n if n else 0.0
        elif stat == "checked_ratio":
            offered = stats.get(f"{span}.offered", 0)
            value = stats.get(f"{span}.checked", 0) / offered if offered else 0.0
        else:
            value = stats.get(name, 0)
        values[name] = value
    return values


class Verdicts:
    """Operations attempted and failed over a whole run, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: Counter = Counter()

    def add(self, tally: Tally) -> None:
        self.attempted += len(tally.latencies)
        self.failed += tally.failed
        self.problems.update(tally.problems)

    def fail(self, problem: str, times: int = 1) -> None:
        self.failed += times
        self.problems[problem] += times


def timed_run(args, workloads, cases, setup_here: tuple[float, float],
              verdicts: Verdicts, record: dict):
    """Closed loop for --seconds, tracing off; returns the end-to-end metric values.

    The loop ends on a whole number of the workload's case cycles, so every
    run times the same mix of case shapes.
    """
    import hostspeed

    keep = args.workload == "witness_scale"
    cycle = workloads.cycle_length(args.workload)

    def enough(n: int) -> bool:
        return n >= MIN_SAMPLES and n % cycle == 0

    tally = measure(
        workloads, cases,
        lambda t, n: t >= args.seconds and (enough(n) or t >= MAX_STRETCH * args.seconds),
        keep_outputs=keep,
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_here] + [_probe_setup(args.workload, args.seed)
                             for _ in range(SETUP_REPEATS - 1)]
    verdicts.add(tally)
    n = len(tally.latencies)
    if not enough(n):
        verdicts.fail(f"timed {n} cases in {MAX_STRETCH} x --seconds; a run needs at least "
                      f"{MIN_SAMPLES} and a multiple of the {cycle}-case cycle")
    setup_wall = [seconds for seconds, _ in setups]
    values = {
        "cases_per_s": n / sum(tally.scaled),
        "latency_p50_ms": _percentile_ms(tally.scaled, 50),
        "latency_p90_ms": _percentile_ms(tally.scaled, 90),
        "setup_s": statistics.median(
            hostspeed.scale(seconds, unit, hostspeed.SETUP_EXPONENT) for seconds, unit in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    wall = {
        "cases_per_s": n / tally.elapsed,
        "latency_p50_ms": _percentile_ms(tally.latencies, 50),
        "latency_p90_ms": _percentile_ms(tally.latencies, 90),
        "setup_s": statistics.median(setup_wall),
    }
    beyond_p90 = sum(t * 1e3 > values["latency_p90_ms"] for t in tally.scaled)
    unit_ms = [c * 1e3 for c in tally.clock.calibrations]
    units = _metric_specs("end_to_end")
    print(f"# {args.workload}: {n} cases in {tally.elapsed:.2f} s, closed loop, one client")
    print("# metric          host-speed scaled   wall clock")
    for name, unit in units.items():
        raw = f"{wall[name]:.6g}" if name in wall else ""
        print(f"{name:16s} {values[name]:<12.6g} {raw:>12s} {unit}")
    print(f"{'failed_ratio':16s} {tally.failed / n:.6g} ({tally.failed}/{n})")
    print(f"# latency samples {n}, {beyond_p90} beyond p90; calibration unit "
          f"{statistics.median(unit_ms):.4f} ms median ({min(unit_ms):.4f}-{max(unit_ms):.4f}), "
          f"reference {hostspeed.REFERENCE_UNIT_S * 1e3:.4f} ms; wall set-ups "
          + ", ".join(f"{s:.4f}" for s in setup_wall) + " s")
    if keep:
        record["scale_counts"] = scale_counts(tally.outputs)
        print("# computed least-squares sizes " + json.dumps(record["scale_counts"], sort_keys=True))
    by_shape: dict[str, list[float]] = {}
    for label, t in zip(tally.labels, tally.scaled):
        by_shape.setdefault(label, []).append(t * 1e3)
    record.update(
        samples=n, beyond_p90=beyond_p90, wall_clock=wall,
        setups=[{"seconds": seconds, "calibration_ms": unit * 1e3} for seconds, unit in setups],
        scaled_ms=[t * 1e3 for t in tally.scaled], case_shapes=tally.labels,
        calibration_ms_median=statistics.median(unit_ms), failed_ratio=tally.failed / n,
        scaled_ms_by_shape={
            label: {"cases": len(v), "median": statistics.median(v), "max": max(v)}
            for label, v in sorted(by_shape.items())
        },
    )
    return values


def traced_run(args, workloads, cases, verdicts: Verdicts, record: dict):
    """A fixed prefix of the cases untraced, then traced; returns the per-layer values."""
    from tracing import Tracer

    count = max(1, math.ceil(TRACE_CASES_PER_S[args.workload] * args.seconds))
    first = cases[:count]
    plain = measure(workloads, first, lambda _, n: n >= count)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(workloads, first, lambda _, n: n >= count, wrap=tracer.case)
    finally:
        tracer.uninstall()
    verdicts.add(plain)
    verdicts.add(traced)
    mismatched = sum(a != b for a, b in zip(plain.fingerprints, traced.fingerprints))
    if mismatched:
        verdicts.fail("traced outputs differ from untraced outputs", mismatched)

    units = _metric_specs("per_layer")
    values = layer_metrics(tracer, units)
    untraced_cps, traced_cps = count / sum(plain.scaled), count / sum(traced.scaled)
    values["tracer.overhead_cases_per_s"] = untraced_cps - traced_cps
    values["tracer.spans"] = len(tracer.span_start)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    print(f"# traced {count} cases: untraced {untraced_cps:.3f} cases/s, traced "
          f"{traced_cps:.3f} cases/s (host-speed scaled), tracing overhead "
          f"{untraced_cps - traced_cps:.3f} cases/s "
          f"({100 * (1 - traced_cps / untraced_cps):.1f}%), {len(tracer.span_start)} spans; "
          "self times are wall seconds; layers that did not run read 0 and are not listed")
    for name, value in values.items():
        if value:
            print(f"{name:58s} {value:.6g} {units[name]}")
    record["traced_cases"] = count
    return values


def run_one(args) -> int:
    if not (SRC / "supfix" / "__init__.py").is_file():
        print(f"supfix sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cases, setup_seconds, setup_unit = _timed_setup(args.workload, args.seed)
    import supfix
    import workloads

    if Path(supfix.__file__).resolve().parent != SRC / "supfix":
        print(f"imported supfix from {supfix.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("# env " + json.dumps(env, sort_keys=True))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}

    workloads.execute(cases[0])  # warm-up: lazy imports and first-call set-up, untimed
    verdicts = Verdicts()
    if args.trace:
        kind = "per_layer"
        values = traced_run(args, workloads, cases, verdicts, record)
    else:
        kind = "end_to_end"
        values = timed_run(args, workloads, cases, (setup_seconds, setup_unit), verdicts,
                           record)

    from guard import check_pack

    pack_checked, pack_problems = check_pack(PACK)
    verdicts.attempted += pack_checked
    for problem in pack_problems:
        verdicts.fail(problem)
    print(f"# acceptance pack: {pack_checked - len(pack_problems)}/{pack_checked} "
          "exit codes and result digests match")
    for problem, times in sorted(verdicts.problems.items()):
        print(f"# FAILED x{times}: {problem}")

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in _metric_specs(kind).items()}
    result = {"correct": verdicts.failed == 0, "attempted": verdicts.attempted,
              "failed": verdicts.failed, "metrics": metrics}
    record.update(result=result, problems=dict(verdicts.problems))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def scale_counts(outputs) -> dict:
    """Per group: order, |Gamma|, d and the dense least-squares system it implies."""
    from tracing import least_squares_system

    counts = {}
    for out in outputs:
        order, size, d = out["order"], out["norming_size"], out["d"]
        rows, cols, nbytes = least_squares_system(order, size, d)
        counts[f"order_{order}_d{d}"] = {
            "order": order, "norming_size": size, "d": d,
            "rows": rows, "cols": cols, "bytes": nbytes,
        }
    return counts


def run_all(args, names) -> int:
    """Each workload in its own child process, then one table of every metric."""
    rows = []
    for workload in names:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ratio = next(line for line in proc.stdout.splitlines()
                     if line.startswith("failed_ratio")) if not args.trace else None
        rows.append((workload, result, ratio))
    print()
    for workload, result, ratio in rows:
        print(f"== {workload}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            print(f"   {name:56s} {metric['value']:.6g} {metric['unit']}")
        if ratio:
            print(f"   {ratio}")
    return 0 if all(result["correct"] for _, result, _ in rows) else 1


def main(argv=None) -> int:
    names = [w["name"] for w in _spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        if not (SRC / "supfix" / "__init__.py").is_file():
            print(f"supfix sources not found under {SRC}", file=sys.stderr)
            return 2
        sys.path.insert(0, str(SRC))
        _, seconds, unit = _timed_setup(args.workload, args.seed)
        print(seconds, unit)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return run_all(args, names) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
