"""Order statistics for op latencies.

Percentiles use the nearest-rank rule: the p-th percentile of n sorted
samples is the k-th smallest, k = ceil(p/100 * n).  The tail of a run is
the highest ladder percentile with at least ``MIN_BEYOND`` samples beyond
it.  The ladder skips the 95th: with the 150-300 ops of a run it would be
the tail, and with 10-15 samples beyond it that spread by 15-27 % of its
median over ten seeds, against 8-10 % for the 90th.
"""
from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def rank_of(n: int, pct: float) -> int:
    """1-based nearest rank of the pct-th percentile among n samples."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def samples_beyond(n: int, pct: float) -> int:
    return n - rank_of(n, pct)


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[rank_of(len(ordered), pct) - 1]


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least MIN_BEYOND samples
    beyond it, or None when n is too small for any."""
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


# Machine speed.  The 2-vCPU VM this benchmark was built on shares its
# cores with other tenants, and its speed swings by up to 2x within a second.
# Every timed interval is therefore sampled with a small fixed pure-Python
# kernel (exact Fraction arithmetic and dict stores, like the library's
# own work) and rescaled to the speed at which the kernel takes
# KERNEL_REF_S, its median time on that VM (Intel Xeon, CPython 3.11;
# middle half 0.49-0.58 ms).  Sampling every 5 ms brought
# the spread of repeated 100 ms ops from 13-19 % of their mean down to
# about 4 %.

KERNEL_REF_S = 0.0005
SAMPLE_EVERY_S = 0.005


def speed_kernel() -> int:
    acc = Fraction(0)
    seen = {}
    for i in range(1, 50):
        x = Fraction(i, i % 13 + 1) * Fraction(7, i % 5 + 2)
        acc += x
        seen[(i % 37, x.denominator)] = acc
    return len(seen)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    speed_kernel()
    return time.perf_counter() - t0


class SpeedProbe:
    """Times a call at the reference machine speed.

    The kernel runs just before and after the call and, by SIGALRM, every
    ``interval`` seconds during it; the call's wall time less the kernel's
    own time is scaled by KERNEL_REF_S over the mean kernel time.  A traced
    run passes ``interval=None`` so that no kernel time lands in a span.
    """

    def __init__(self, interval: float | None = SAMPLE_EVERY_S):
        self.interval = interval
        self.samples: list[float] = []

    def _sample(self, _signum, _frame) -> None:
        self.samples.append(kernel_seconds())

    def measure(self, fn):
        """Return fn()'s result, its wall seconds and those seconds at the
        reference speed."""
        self.samples = [kernel_seconds()]
        if self.interval:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            wall = time.perf_counter() - t0
            if self.interval:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        inside = sum(self.samples[1:])
        self.samples.append(kernel_seconds())
        busy = wall - inside
        return out, busy, busy * KERNEL_REF_S / statistics.fmean(self.samples)
