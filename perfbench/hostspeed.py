"""Host-speed calibration for timings taken on a shared machine.

On a shared host the speed available to one process drifts by tens of
percent within seconds, with no steal time visible to the guest, so the
same case list can take 1.4 s in one minute and 2.6 s in the next.  The
benchmark therefore times a fixed calibration unit (small numpy products
and interpreter arithmetic, the mix the package's hot paths are made of)
between every two cases, and scales each case's latency by

    (REFERENCE_UNIT_S / mean of the calibrations just before and after it) ** SPEED_EXPONENT

A case that calls the package in several steps is timed step by step,
with a calibration between steps, so a long case is scaled piecewise.
The scaled figure is the latency in milliseconds of a host on which one
calibration unit takes REFERENCE_UNIT_S, the unit's time on a quiet
2-core Intel Xeon host with Python 3.11 and numpy 2.4.  Raw wall-clock
figures are printed and recorded beside the scaled ones.

The package slows less than the unit when the host is busy.  The exponent
was fitted on that host: 36 fixed cases from fixed_point, certify and
witness, each timed about 114 times over 150 s.  Cases timed while the unit
was faster than its median read 4.3% slower than those timed while it was
slower with exponent 1.0, and 0.1% faster with 0.9; the spread of one case's
scaled times (sd of the log) was 0.095 at 1.0, 0.085 at 0.9 and 0.237 unscaled.

Set-up time (imports and case generation in a fresh interpreter) follows the
unit less closely.  Each set-up is scaled by the unit timed around it (just
before the interpreter starts and just after its set-up) with
SETUP_EXPONENT, and a run reports the median of its nine scaled set-ups.
The exponent was chosen on 30 runs (certify, witness and witness_scale, seeds
101-110): the spread (IQR / median) of the runs' setup_s was 0.13, 0.16 and
0.22 unscaled, 0.09, 0.09 and 0.20 with exponent 0.4, 0.07, 0.04 and 0.15
with 0.8, and 0.08, 0.05 and 0.13 with 1.0.  Scaling by the median unit of
the timed loop instead, which runs at another time, made these spreads wider
with every exponent above 0.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_UNIT_S = 0.00035
SPEED_EXPONENT = 0.9
SETUP_EXPONENT = 0.8
_REPEATS = 3  # the unit is timed this many times; the fastest counts
_A = np.arange(9.0).reshape(3, 3)


def _unit() -> float:
    v = np.ones(3)
    s = 0
    for _ in range(100):
        v = np.abs(_A @ v) / (1.0 + v.sum())
        s += sum(range(20))
    return float(v[0]) + s


def unit_seconds() -> float:
    """Fastest of a few timings of one calibration unit on this host now."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = perf_counter()
        _unit()
        best = min(best, perf_counter() - start)
    return best


def scale(seconds: float, unit: float, exponent: float) -> float:
    """seconds measured while one calibration unit took `unit` seconds, scaled
    to a host on which it takes REFERENCE_UNIT_S."""
    return seconds * (REFERENCE_UNIT_S / unit) ** exponent


class ScaledClock:
    """Times segments in wall and scaled seconds, calibrating after each one."""

    def __init__(self):
        self.calibrations = [unit_seconds()]
        self._started = 0.0

    def start(self) -> None:
        self._started = perf_counter()

    def stop(self) -> tuple[float, float]:
        """End the segment begun by start(); returns (wall, scaled) seconds."""
        wall = perf_counter() - self._started
        before = self.calibrations[-1]
        after = unit_seconds()
        self.calibrations.append(after)
        return wall, scale(wall, (before + after) / 2, SPEED_EXPONENT)
