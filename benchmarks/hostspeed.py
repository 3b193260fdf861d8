"""Host-speed calibration: a fixed kernel timed alongside the workload.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds to minutes, and the drift is shared by all interpreter-bound
code. So the benchmark times a fixed kernel (no ``leoroute`` code) after
every ``EVERY_S`` of calls, for about ``SHARE`` of that time, and reports
each time scaled by ``REFERENCE_S`` over the mean kernel time: the time the
calls would take on a host where the kernel takes ``REFERENCE_S``. On a
2-vCPU Intel Xeon host it cut the spread (interquartile range over median)
of ten 25-second runs from up to 26% to at most 9%. Each metric line of a
run prints the unscaled value beside the scaled one.

``REFERENCE_S`` is a fixed unit, the same at every commit, so scaled figures
of two commits compare as their unscaled ones would on a host of constant
speed. It is the median of the kernel's mean time over 30 benchmark runs
(ten per workload, 25 s each) on the reference host, rounded to 0.1 ms: the
means ranged from 4.4 to 6.2 ms, median 5.45 ms. In the next 30 runs,
scaled with 5.5 ms, the median speed factor per workload was 0.97-1.01.
Run alone, ``python3 benchmarks/hostspeed.py`` read means of 4.5, 5.1 and
4.6 ms there (400 samples each); interleaved with the library's calls the
kernel runs slower.

The kernel runs in the benchmark's own process. A change that slows the
whole process, not only the library's calls, slows the kernel too, and part
of that regression is divided away: threads or child processes left using
CPU, or a heap grown until allocation and the caches slow. The unscaled
values show such a regression.
"""

from __future__ import annotations

import sys
from statistics import fmean, quantiles
from time import perf_counter

import numpy as np

#: Kernel seconds on the reference host (Intel Xeon, 2 vCPUs at 2.1 GHz).
REFERENCE_S = 0.0055
#: Seconds of timed calls between two kernel samples.
EVERY_S = 0.05
#: Kernel time as a share of the call time it follows.
SHARE = 0.1

_UNITS = np.random.default_rng(0).normal(size=(3000, 3))


def kernel() -> float:
    """Seconds taken by a fixed mix of interpreter-bound and small-array work."""
    start = perf_counter()
    s = 0.0
    for i in range(20000):
        s += (i % 7) * 0.5
    for _ in range(30):
        b = _UNITS / np.linalg.norm(_UNITS, axis=1)[:, None]
        s += float((b @ b[0])[0])
    return perf_counter() - start


class Gauge:
    """Kernel samples interleaved with the timed calls of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._pending = 0.0

    def after(self, seconds: float) -> None:
        """Account for a timed call; sample the kernel when enough has passed."""
        self._pending += seconds
        if self._pending >= EVERY_S:
            spent = 0.0
            while spent < SHARE * self._pending or spent == 0.0:
                sample = kernel()
                self.samples.append(sample)
                spent += sample
            self._pending = 0.0

    def speed(self) -> float:
        """How much faster than the reference host the calls ran (>1: faster)."""
        return REFERENCE_S / fmean(self.samples)


def main() -> int:
    """Print the mean and quartiles of the kernel's time on this host."""
    samples = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    kernel()
    times = [kernel() for _ in range(samples)]
    q1, _, q3 = quantiles(times, n=4)
    print(f"kernel over {samples} samples: mean {fmean(times)!r} s, "
          f"quartiles {q1!r} {q3!r} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
