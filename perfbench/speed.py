"""Correct job times for the speed the CPU happens to run at.

A shared host slows a vCPU by up to about 1.75x for seconds to minutes at a
time, when other tenants load the core under it. That drift is larger than
any change a benchmark wants to see, so every time the benchmark reports is
corrected for it.

While the workload runs, a SIGALRM timer fires every INTERVAL_S seconds and
its handler times probe(), a fixed piece of pure-Python work built only from
the standard library (the same kind of work as the package's hot path:
Fraction products summed into a dict keyed by exponent tuples, but none of
the package's code, so a change to the package cannot speed up the probe).
Its duration d measures the current speed. A span of wall time T that holds
probe durations d_1..d_m (the samples inside it plus those within WINDOW_S
of either end) is reported as

    (T - probe time spent inside the span) * mean(PROBE_REF_S / d_i)

that is, the time the span would have taken at the speed at which the probe
takes PROBE_REF_S seconds. A probe that falls inside a job has its time
taken out of the job's.
"""

from __future__ import annotations

import bisect
import gc
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.05
WINDOW_S = 0.1
# the probe's time at the fastest speed a 2-vCPU Intel Xeon VM under
# Python 3.11 showed; reported times are times at that speed
PROBE_REF_S = 0.00055

_LEFT = [((i % 3, i % 5, i % 2, i % 4), Fraction(i % 11 - 5, i % 4 + 1)) for i in range(12)]
_RIGHT = [((i % 2, i % 3, i % 4, i % 5), Fraction(i % 7 + 1, i % 5 + 2)) for i in range(12, 24)]


def probe():
    """A fixed sparse product: 144 Fraction products into a tuple-keyed dict."""
    acc = {}
    for e1, c1 in _LEFT:
        for e2, c2 in _RIGHT:
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return acc


class SpeedMeter:
    """Probe samples over a stretch of the run: (start time, duration)."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def sample(self, *_):
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        probe()
        self.durations.append(perf_counter() - start)
        self.starts.append(start)
        if enabled:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def correct(self, start, end):
        """The span [start, end] as seconds at the reference speed."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        inside = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        if hi <= lo:
            raise RuntimeError("no speed sample within %.2f s of a timed span" % WINDOW_S)
        net = end - start - sum(self.durations[inside[0]:inside[1]])
        return net * sum(PROBE_REF_S / d for d in self.durations[lo:hi]) / (hi - lo)

    def factor(self):
        """Mean slowdown over every sample: 1 at the reference speed."""
        return sum(self.durations) / len(self.durations) / PROBE_REF_S
