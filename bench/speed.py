"""The host's speed while a command runs, and times given at a fixed speed.

On a shared host, the speed a process gets changes within a second and
from minute to minute with the load of its neighbours, by more than the
benchmark's bounds: on a 2-core host, the same command took from 4.4 s to
6.1 s in one process.  So while the untraced command runs, a timer
interrupts it every ``SAMPLE_PERIOD_S`` and times a fixed reference task
that touches nothing of the package.  ``run.py`` then gives the command's
wall time at the speed at which that task takes ``REFERENCE_S``:
``wall * REFERENCE_S / (mean task time during the command)``.

The task has three parts, because host load slows them unequally and
their sum followed the package's commands best: a small pure-Python loop,
numpy calls on 1024-point arrays (the size of the solver's scans), and
Python reads at random places of a 2 MB array, which go past the CPU's
nearest caches.  Over 10 runs of each workload on the 2-core host, the
standard deviation over repetitions of log(wall / task time) was 0.04 to
0.06, against 0.12 to 0.17 for log(wall).  The array adds its 2 MB to
every repetition's peak RSS.
"""

from __future__ import annotations

import random
import signal
import time
from array import array

import numpy as np

SAMPLE_PERIOD_S = 0.025
# Seconds the reference task takes at the speed at which times are given:
# about its median on the 2-core host of the baseline.
REFERENCE_S = 0.8e-3

LOOP_STEPS = 2500
SCAN_POINTS = 1024
SCAN_ROUNDS = 10
TABLE_SIZE = 1 << 18  # 2 MB of doubles
TABLE_READS = 1000


class SpeedSampler:
    """Times the reference task on a SIGALRM timer while it is entered."""

    def __init__(self) -> None:
        rng = random.Random(1)
        self.xs = np.linspace(0.0, 50.0, SCAN_POINTS)
        self.ys = np.maximum(50.0 - self.xs, 0.0) ** 1.5
        self.table = array("d", (rng.random() for _ in range(TABLE_SIZE)))
        self.reads = [rng.randrange(TABLE_SIZE) for _ in range(TABLE_READS)]
        self.samples: list[float] = []
        self.busy = False
        self.task()  # warm up, untimed

    def task(self) -> float:
        acc = 0
        for i in range(LOOP_STEPS):
            acc = (acc * 31 + i * i) % 1000003
        total = float(acc)
        for k in range(SCAN_ROUNDS):
            d = np.interp(self.xs * 0.7, self.xs, self.ys) - 0.5 * k * self.xs
            total += int(np.count_nonzero(np.diff(np.sign(d))))
        table = self.table
        for i in self.reads:
            total += table[i]
        return total

    def sample(self, *_signal) -> None:
        if self.busy:  # a tick that arrives during a sample is dropped
            return
        self.busy = True
        t0 = time.perf_counter()
        self.task()
        self.samples.append(time.perf_counter() - t0)
        self.busy = False

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def at_reference_speed(seconds: float, reference_s: float) -> float:
    """``seconds`` measured while the task took ``reference_s``, rescaled."""
    return seconds * REFERENCE_S / reference_s
