"""Host-speed calibration: a fixed kernel timed next to every measurement.

On a shared host each vCPU switches between speed regimes, for a fraction
of a second up to tens of seconds, and the slow regime runs Python bytecode
and NumPy about 1.5-1.8x slower (on a 2-vCPU VM, process CPU time grew with
wall time, so this is not steal time, and the two vCPUs switched
independently). A best-of over repeats misses that when a whole run falls
in the slow regime. So every measured interval is bracketed by readings of
a fixed kernel that does not call tailforge, on the same pinned CPU, and
reported at a fixed reference speed:

    normalised = interval * REFERENCE_S / mean(reading before, reading after)

A measurement's value is the median of its normalised samples. Code does
not slow by exactly the kernel's factor (a spawned interpreter slowed 1.4x
while the kernel slowed 1.56x), but over ten runs per workload on that
host this median spread less between runs than keeping only the samples
taken near the fastest speed, than the fastest normalised sample, and far
less than any statistic of raw times.

``REFERENCE_S`` is about the kernel's fastest time on that host, so
normalised times there read close to its unloaded wall times. A fixed
reference, rather than each run's fastest reading, keeps the scale of a run
from depending on how fast that run's fastest moment was. A change that
makes tailforge faster shortens the interval and leaves the readings alone,
so the normalised time moves with it.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

STEP = np.array([0.25, 0.5, 0.25])
REFERENCE_S = 3.0e-4


def kernel() -> None:
    """~0.3 ms of dict updates and small NumPy convolutions."""
    d: dict = {}
    for i in range(3000):
        d[i & 511] = d.get(i & 511, 0.0) + 1.5
    a = np.ones(512)
    for _ in range(10):
        a = np.convolve(a, STEP)[1:513]


def pin_to_one_cpu() -> int:
    """Pin this process (and the children it starts later) to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Speedometer:
    """Kernel readings in order; a measurement between readings i and i+1."""

    def __init__(self):
        self.readings: list[float] = []

    def read(self) -> int:
        """Time the kernel (best of two) and return the reading's index."""
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        self.readings.append(best)
        return len(self.readings) - 1

    def normalise(self, seconds: float, index: int) -> float:
        """``seconds`` measured between readings ``index`` and ``index + 1``."""
        around = 0.5 * (self.readings[index] + self.readings[index + 1])
        return seconds * REFERENCE_S / around

    def median(self, samples: list) -> float:
        """Median of (seconds, reading index) samples at the reference speed."""
        return statistics.median(self.normalise(t, i) for t, i in samples)
