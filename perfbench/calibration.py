"""Machine-speed reference: a fixed kernel timed every EVERY_S during a run.

The benchmark machine shares its cores with other tenants, which slow all
code by up to 1.6x for phases that last from seconds to minutes. On a 2-core
VM, three 30 s select_sweep runs on the same seed read 42, 54 and 44
records/s. The kernel below mixes what vlcfed spends its time on (small numpy
products and scalar float math in the interpreter), so its time rises and
falls with theirs. In a 5-minute recording of oracle_small, select_sweep and
FedAvg records interleaved with the kernel, the mean record time of 30 s
windows spread (IQR over median) by 14-17% raw and by 2.5-3.6% once each
record was divided by the kernel times around it.

A timer signal runs the kernel between bytecodes of whatever the main thread
is doing, so a record lasting seconds (fedavg_default) is sampled while it
runs, on the same core. The handler's own time is subtracted from the record.
Every reported time is scaled to the speed at which the kernel takes
REFERENCE_S: ``scaled = measured * REFERENCE_S / kernel``. A change to vlcfed
does not touch the kernel, so it moves scaled times as it moves raw ones.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 1.5e-3  # about the kernel's time when the machine is quiet
EVERY_S = 0.25
_X = np.linspace(-1.0, 1.0, 9 * 13).reshape(9, 13)
_W = np.linspace(-0.5, 0.5, 13 * 10).reshape(13, 10)


def _kernel() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(1000):
        h = _X @ _W
        acc += math.log2(1.0 + float(h[i % 9, 0]) ** 2) + math.hypot(i, 3.0)
    return time.perf_counter() - start


def scale(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_S / kernel_s


class Speed:
    """Samples the kernel from a SIGALRM timer while the context is open."""

    def __init__(self):
        self.times: list[float] = []  # when each sample was taken
        self.kernel_s: list[float] = []  # median of three kernel calls
        self.handler_s = 0.0  # total time spent in the handler
        self._previous = None

    def sample(self, *_) -> None:
        start = time.perf_counter()
        self.kernel_s.append(statistics.median(_kernel() for _ in range(3)))
        self.times.append(start)
        self.handler_s += time.perf_counter() - start

    def __enter__(self) -> "Speed":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def during(self, start: float, end: float) -> float:
        """Mean kernel time over [start, end], else the samples on either side."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi > lo:
            return statistics.fmean(self.kernel_s[lo:hi])
        before = self.kernel_s[max(lo - 1, 0)]
        after = self.kernel_s[min(hi, len(self.kernel_s) - 1)]
        return (before + after) / 2
