"""Machine-speed reference for the timed metrics.

On a shared virtual machine the processor switches, often within a second
and sometimes for tens of seconds, between faster and slower phases; on the
2-core KVM Xeon (2.1 GHz) this benchmark was tuned on, one 20 s run could
take 1.3x to 2.7x the fastest run's wall time for the same operations.
That is more than any useful regression bound.  So a run also times a fixed
probe that uses no coverkit code, every INTERVAL_S between (never inside)
operations, and each operation's wall time is divided by the speed factor
around it: the mean of the probe times just before and just after it,
relative to REFERENCE_S, the probe's time in a fast phase on that machine.
A change to coverkit cannot move the probe, so it still moves the reported
times in full.  The correction is partial (work of different kinds slows
by different amounts), and raw wall-time figures are kept in each result
file next to the run's mean factor.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.0038
INTERVAL_S = 0.05


def probe() -> float:
    """Wall seconds of exact rational sums, an integer loop and numpy
    passes, in about equal parts: the kinds of work coverkit's operations
    are made of."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 800):
        acc += Fraction(i % 7, i % 97 + 1)
    s = 0
    for i in range(10000):
        s += i * i % 11
    a = np.arange(100_000, dtype=np.int64)
    int((a * 3 % 7).sum() + np.roll(a, 5)[0])
    return time.perf_counter() - start


class SpeedProbe:
    """Probe samples taken over one run."""

    def __init__(self):
        probe()  # warm-up: first-call costs are not machine speed
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        self.samples.append(probe())
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Sample if INTERVAL_S of wall time has passed since the last one."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def around(self, j: int) -> float:
        """Factor from the samples just before and just after an operation
        that started when ``j`` samples had been taken (j >= 1)."""
        near = self.samples[j - 1 : j + 1]
        return sum(near) / len(near) / REFERENCE_S

    def factor(self) -> float:
        """Mean probe time over the reference: 1 at the reference speed,
        larger on a slower machine or phase."""
        return statistics.mean(self.samples) / REFERENCE_S
