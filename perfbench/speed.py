"""Machine-speed probe: a fixed reference kernel timed while the benchmark runs.

The benchmark host is a shared 2-CPU virtual machine whose single-core
speed drifts by about +-20% over seconds to minutes, for interpreter and
numpy code alike, with no steal time reported.  Medians over a longer run
do not remove a drift that slow.  So the benchmark times this kernel,
which does the same kinds of work as the program, throughout a run, and
scales its throughput to a machine on which the kernel takes
KERNEL_REF_S.  The raw figures are reported beside the scaled ones.  The
scaling removes only part of the drift: the program's rate moved about
1.8 times as much, in log terms, as the kernel's time.

Process start-up drifts too, but it does not follow the kernel.  Set-up
time is scaled instead by the start-up of a bare interpreter
(`python3 -c pass`), timed right before each set-up interpreter, to a
machine on which that takes START_REF_S.

Between start() and stop(), a SIGALRM interval timer runs the kernel every
INTERVAL_S seconds inside the main thread, between bytecodes of whatever
the program is doing; the time spent in the handler is kept in `stolen`
so the caller can take it out of the program's time.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Kernel seconds on the reference machine speed (about the median on the
# 2-CPU Xeon host the benchmark was written on).  Only ratios between runs
# matter, so these stay fixed.
KERNEL_REF_S = 0.0016
# Bare interpreter start-up seconds on the same reference.
START_REF_S = 0.065
INTERVAL_S = 0.1  # between kernel runs: about 3% of the run's time


class SpeedProbe:
    """Kernel durations sampled through a run, and the time they took."""

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0
        gen = np.random.default_rng(0)
        self._matrix = gen.random((64, 64))
        self._vector = gen.random(64)
        self._previous = None

    def _kernel(self):
        """A miniature of the program's hot paths, written independently of
        it: eight trials of keying, drawing, sorting and a 70-step channel
        recurrence at n=100, then one 64x64 condition estimate and solve."""
        for i in range(8):
            gen = np.random.Generator(np.random.Philox(key=np.array([i, 1], dtype=np.uint64)))
            raw = -np.log1p(-gen.random(100)) / 0.1
            order = np.argsort(raw, kind="stable")
            rank = np.empty(100, dtype=np.intp)
            rank[order] = np.arange(100)
            finish = raw[order] + 10.0
            np.all(np.isfinite(raw))
            np.any(np.diff(finish) < 0)
            free = -math.inf
            starts, ends = [], []
            for x in finish[:70].tolist():
                start = x if x >= free else free
                free = start + 0.01
                starts.append(start)
                ends.append(free)
            np.searchsorted(np.array(ends), finish[69], side="right")
            np.nonzero(np.array(starts) == finish[:70])
        np.linalg.cond(self._matrix)
        np.linalg.solve(self._matrix, self._vector)

    def sample(self) -> float:
        """Run the kernel once; record and return its duration."""
        start = time.perf_counter()
        self._kernel()
        duration = time.perf_counter() - start
        self.samples.append(duration)
        return duration

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.sample()
        self.stolen += time.perf_counter() - start

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowness(self, first: int = 0) -> float | None:
        """Mean kernel time of samples[first:] over the reference time:
        above 1 when the machine ran slower than the reference."""
        taken = self.samples[first:]
        return statistics.fmean(taken) / KERNEL_REF_S if taken else None
