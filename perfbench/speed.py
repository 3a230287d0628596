"""Machine-speed probe.

The shared machines this benchmark runs on change speed by up to 2x, in
abrupt steps seconds apart (an identical pure-Python loop was measured at
53-139 ms within one minute, with CPU time equal to wall time).  So every
timed interval is normalised by a probe: a fixed piece of exact rational
arithmetic, written here and not taken from orbitrr, so that no change to
the package can alter it.  A time is reported in nominal seconds: the raw
seconds scaled by the probe's nominal time over its time measured in and
around the interval.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# Probe time per iteration that defines a nominal second: the median on a
# 2.0 GHz Xeon with Python 3.11.7.  It fixes the unit only.
NOMINAL_PER_ITERATION_S = 0.005 / 400
BRACKET_ITERATIONS = 400
TICK_ITERATIONS = 40
TICK_INTERVAL_S = 0.05


def probe(iterations: int = BRACKET_ITERATIONS) -> float:
    """Seconds per iteration of the fixed probe work."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, iterations + 1):
        f = Fraction(i % 7 + 1, i % 11 + 1)
        acc += f * f - Fraction(1, i % 5 + 2)
        table[(i % 13, i % 5)] = acc
    return (time.perf_counter() - t0) / iterations


def nominal(raw_s: float, probes: list[float]) -> float:
    """`raw_s` seconds of work, in nominal seconds, given per-iteration
    probe times taken in and around it."""
    return raw_s * NOMINAL_PER_ITERATION_S * len(probes) / sum(probes)


class Sampler:
    """Runs a short probe every TICK_INTERVAL_S seconds (from SIGALRM) while
    armed, so a speed step in the middle of a long request is seen.  The
    time the probes take is kept in `spent`, to be taken off the interval."""

    def __init__(self):
        self.ticks: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.ticks.append(probe(TICK_ITERATIONS))
        self.spent += time.perf_counter() - t0

    def arm(self):
        self.ticks, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
