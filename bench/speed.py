"""Machine speed, measured by a fixed Fraction kernel between the ops.

On a shared 2-core sandbox the speed of the CPU drifts by up to 2x
within a minute, with CPU time tracking wall time, so it is not
scheduling. The same seed then gave 9.3 to 14.7 ops/s on theorem-gbit.
The benchmark therefore runs ``kernel`` about every ``PERIOD_S`` seconds
and reports durations at the reference speed: each wall duration is
multiplied by ``REFERENCE_S`` over the kernel time measured next to it.
The speed flips between states within seconds, so the scale of an op
comes from the samples nearest to it, not from the whole run.
On five repeats of one seed this cut the spread (interquartile range
over median) of ops_per_s from 0.29 to 0.04. The raw figures go into
the run's metadata.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# Duration of one kernel call at the reference speed (the fast state of
# the 2-core sandbox the bounds were set on).
REFERENCE_S = 0.0025
PERIOD_S = 0.1

# A fixed 9 x 10 rational matrix with small entries; eliminating it grows
# numbers to about 40 bits, like the simplex tableaus of the workloads.
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(10)]
           for i in range(9)]


def kernel() -> list:
    """Gauss-Jordan elimination with the dense row update of a simplex pivot."""
    work = [list(row) for row in _MATRIX]
    for col in range(len(work)):
        pivot = next(i for i in range(col, len(work)) if work[i][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        prow = work[col] = [x * inv for x in work[col]]
        for i, row in enumerate(work):
            if i != col and row[col]:
                f = row[col]
                work[i] = [a - f * b for a, b in zip(row, prow)]
    return work


def kernel_seconds() -> float:
    """Kernel time with the cycle collector off: a collection of the
    program's heap would otherwise land in whichever sample triggers it."""
    gc.disable()
    try:
        began = time.perf_counter()
        kernel()
        return time.perf_counter() - began
    finally:
        gc.enable()


class SpeedProbe:
    """Kernel timings taken at least PERIOD_S apart, with their time stamps."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        """Time the kernel if the last sample is PERIOD_S old."""
        now = time.perf_counter()
        if self.times and now - self.times[-1] < PERIOD_S:
            return
        duration = kernel_seconds()
        self.times.append(now)
        self.durations.append(duration)
        self.spent += duration

    def scale(self) -> float:
        """Reference seconds per wall second, averaged over the run."""
        return REFERENCE_S / statistics.mean(self.durations)

    def scale_at(self, moment: float) -> float:
        """Reference seconds per wall second near one moment: the median of
        the three samples closest in time."""
        i = bisect.bisect_left(self.times, moment)
        near = sorted(range(max(0, i - 3), min(len(self.times), i + 3)),
                      key=lambda j: abs(self.times[j] - moment))[:3]
        return REFERENCE_S / statistics.median(self.durations[j] for j in near)
