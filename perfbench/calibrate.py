"""Host-speed reference kernel, timed alongside a workload.

The benchmark host is shared: over minutes its speed for the same code
drifts by tens of percent.  A fixed kernel that uses no warpforge code,
elementwise numpy on 4096-point arrays, is timed between the workload's
cycles.  Of the kernels tried (this one, scalar dataclass arithmetic, and
both together), it followed the drift of all four workloads most closely.

Its median time over a run, divided by REFERENCE_MS, is the host's
slowness during that run; dividing an operation time by the slowness (or
multiplying a rate by it) gives the figure at reference host speed.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

STEPS = 60
# median kernel time on the host the benchmark was defined on (Intel Xeon
# at 2.1 GHz, 2 vCPU, Python 3.11, numpy 2.4)
REFERENCE_MS = 5.0

_R = np.geomspace(1e-3, 1e3, 4096)


def kernel() -> float:
    """Seconds for a fixed run of elementwise numpy on 4096 points."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(STEPS):
        a = np.sin(_R) / _R
        b = np.sqrt(_R * _R + 1.0)
        c = (a * b - _R) / (b + 1.0)
        j = int(np.argmin(c))
        acc += float(c[j]) + j
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel diverged")
    return elapsed


class Calibration:
    """Runs the kernel between cycles so that it takes `share` of the
    measured time, and keeps every timing."""

    def __init__(self, share: float = 0.05) -> None:
        self.share = share
        self.times: list[float] = []

    def keep_up(self, measured_seconds: float) -> None:
        while not self.times or sum(self.times) < self.share * measured_seconds:
            self.times.append(kernel())

    def slowness(self) -> float:
        """Median kernel time over REFERENCE_MS: 1 at reference speed, above
        1 on a slower host."""
        return statistics.median(self.times) * 1e3 / REFERENCE_MS
