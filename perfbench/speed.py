"""Rescale measured times to a reference host speed.

The benchmark's host is shared: its speed swings by 20-50% over seconds
and minutes while the program does the same work, which is more than the
benchmark's bounds allow.  A `SpeedProbe` times a fixed calibration
kernel (small-matrix numpy calls and Python float arithmetic, the mix
liechart's stencils run) on a wall-clock timer signal while the program
runs, so every measured interval comes with the host's speed during it.
`normalise` then reports the interval's time as it would have been at the
reference speed:

    normalised = (elapsed - time spent in the kernel) * REFERENCE_KERNEL_S / kernel_mean

where kernel_mean is the kernel's mean duration in a window around the
interval.  The kernel uses no liechart code, so a change to liechart moves
the normalised times as much as the raw ones.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

clock = time.perf_counter

# a fixed reference: about the kernel's median duration on a shared
# 2-vCPU x86_64 host with Python 3.11 and one BLAS thread
REFERENCE_KERNEL_S = 1.0e-3
KERNEL_ITERATIONS = 200

_A = np.linspace(0.5, 1.5, 81).reshape(9, 9)
_X = np.linspace(-1.0, 1.0, 9)


def kernel() -> float:
    s = 0.0
    for i in range(KERNEL_ITERATIONS):
        y = _A @ _X + _X
        d = [float(v) for v in y[:3]]
        s += sum(d) * 0.5 + i
    return s


class SpeedProbe:
    """Kernel samples (start time, duration), taken on a timer or on demand."""

    def __init__(self, interval_s: float = 0.025, window_s: float = 0.5) -> None:
        self.interval_s = interval_s
        self.window_s = window_s
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self, *_signal_args) -> None:
        t0 = clock()
        kernel()
        self.starts.append(t0)
        self.durations.append(clock() - t0)

    def burst(self, n: int = 100) -> None:
        for _ in range(n):
            self.sample()

    def mean_slowdown(self) -> float:
        """Host slowdown against the reference over every sample taken."""
        return statistics.fmean(self.durations) / REFERENCE_KERNEL_S

    @contextlib.contextmanager
    def running(self):
        """Sample every `interval_s` of wall time inside the block.

        A sample runs in this thread between two bytecodes, so one that
        starts inside a timed interval also ends inside it.
        """
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _range(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def probe_time(self, t0: float, t1: float) -> float:
        """Time spent in samples that started in [t0, t1)."""
        lo, hi = self._range(t0, t1)
        return sum(self.durations[lo:hi])

    def slowdown(self, t0: float, t1: float) -> float:
        """Host slowdown against the reference over [t0, t1], widened to the window."""
        mid = (t0 + t1) / 2
        lo, hi = self._range(min(t0, mid - self.window_s), max(t1, mid + self.window_s))
        if hi <= lo:
            raise ValueError(f"no speed samples near [{t0}, {t1}]")
        return statistics.fmean(self.durations[lo:hi]) / REFERENCE_KERNEL_S

    def normalise(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would have taken at the reference speed, probe excluded."""
        return (t1 - t0 - self.probe_time(t0, t1)) / self.slowdown(t0, t1)
