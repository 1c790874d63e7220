"""Machine-speed reference for times taken on a shared host.

On a VM whose physical cores are shared with other tenants, the CPU time
of one fixed piece of work swings by up to 2x within seconds (measured on
the 2-vCPU reference machine: the same decode took 136 to 278 ms of CPU
time in one minute).  The benchmark therefore brackets its work with a
fixed reference loop and scales each measured time by
NOMINAL_S / (reference time around it).  The loop is shaped like the program's
hot path: an interpreter loop over (2, 61) arrays, as in one trellis step.
Reported times read as CPU time on a machine where the loop takes
NOMINAL_S, about the reference machine's speed when its neighbours idle.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.005
STEPS = 500


def reference_seconds() -> float:
    """CPU seconds of the fixed reference loop."""
    t0 = time.process_time()
    a = np.linspace(0.0, 1.0, 61)
    v = np.ones((2, 61))
    for _ in range(STEPS):
        nxt = np.zeros_like(v)
        nxt[:, :-1] += 0.3 * v[:, 1:]
        nxt[0] += a * v[1]
        nxt[1, 3:] += 0.1 * v[0, :-3]
        v = nxt / float(nxt.sum())
    return time.process_time() - t0


class SpeedScale:
    """Reference samples taken between stretches of measured work.
    Interval i lies between samples i and i + 1; its factor uses the
    median of the samples from i - 1 to i + 2, which damps the noise of a
    single short sample."""

    def __init__(self):
        self.samples = [reference_seconds()]
        self.at = time.perf_counter()

    def sample(self) -> int:
        """Take a sample; return the index of the interval it closes."""
        self.samples.append(reference_seconds())
        self.at = time.perf_counter()
        return len(self.samples) - 2

    def factor(self, interval: int) -> float:
        window = self.samples[max(0, interval - 1): interval + 3]
        return NOMINAL_S / statistics.median(window)
