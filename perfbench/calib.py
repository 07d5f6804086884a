"""Host-speed calibration.

The machines this benchmark runs on are shared: the speed of a CPU moves
by tens of percent within minutes, and within seconds, as other tenants
come and go, and moves every timing with it.  The benchmark therefore
times a fixed kernel on the same CPU, at most SAMPLE_EVERY_S apart, while
the measured work runs, and reports every time t as

    t * CAL_REF_S * mean(1 / kernel time) over the samples taken during t,

or, when none was taken during t (an in-process op, a set-up probe), by
the mean kernel time of the samples just before and after it: in seconds
of a reference host on which the kernel takes CAL_REF_S.  Within a long
span the host switches between fast and slow phases; the work done is
the integral of the speed, so the speeds (1 / kernel time) of the evenly
spaced samples are averaged, not their median taken.
The raw wall-clock values are printed next to the calibrated ones.  The
kernel mixes the two kinds of work the program does, small-array numpy
calls and Python object allocation with dict and attribute traffic; of
the kernels tried, this one tracked all three in-process workloads best.
It does not touch keplersym, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import time

import numpy as np

CAL_REF_S = 2.0e-3  # the kernel's time on the reference host
SAMPLE_EVERY_S = 0.1


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: int):
        self.x = x
        self.y = y


def kernel() -> float:
    """Run the fixed calibration work once; return its wall time in s."""
    start = time.perf_counter()
    s = np.array([1.0, 0.0, 0.0, 1.0])
    for _ in range(300):  # RK4-like small-array steps
        r3 = math.hypot(s[0], s[1]) ** 3
        s = s + 1e-3 * np.array([s[2], s[3], -s[0] / r3, -s[1] / r3])
    table: dict[int, float] = {}
    for i in range(2000):  # allocation, dict and attribute traffic
        p = _Point(i * 0.5, (i * 7919) % 1009)
        table[p.y] = table.get(p.y, 0.0) + p.x
    return time.perf_counter() - start


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU, so that the kernel
    samples the CPU the measured work runs on."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Calibration:
    def __init__(self):
        self.samples: list[float] = []
        self.stamps: list[float] = []  # perf_counter() at each sample
        self._last_clock: float | None = None

    def sample(self) -> None:
        self.stamps.append(time.perf_counter())
        self.samples.append(kernel())

    def every(self, clock_s: float) -> None:
        """Sample when SAMPLE_EVERY_S of `clock_s` has passed since the last
        sample taken through this method."""
        if self._last_clock is None or clock_s - self._last_clock >= SAMPLE_EVERY_S:
            self.sample()
            self._last_clock = clock_s

    def scale(self, start: float, duration: float) -> float:
        """`duration` (begun at perf_counter() `start`) on the reference host:
        by the mean speed of the samples taken while it ran, or else by the
        mean of the nearest samples before and after it."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_left(self.stamps, start + duration)
        if hi > lo:
            return duration * CAL_REF_S * statistics.fmean(1.0 / k for k in self.samples[lo:hi])
        kernel_s = (self.samples[max(lo - 1, 0)] + self.samples[min(hi, len(self.samples) - 1)]) / 2
        return duration * CAL_REF_S / kernel_s
