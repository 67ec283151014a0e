"""Host-speed probe: a fixed numpy kernel sampled while the program runs.

The benchmark host is a few cores of a shared machine whose speed drifts by
20-35% within a run and between runs, so raw times from runs minutes apart
are not comparable.  While a repetition of the solve phase runs, an
interval timer interrupts it every INTERVAL_S and the signal handler times
one sample of this kernel.  The samples see the host as the program sees
it, moment by moment.  A repetition's program time (its wall time less the
samples) divided by the mean sample time does not depend on the host's
speed; multiplied by REF_S it reads in seconds on the reference host.

The kernel never calls perturba, so a change to the program moves the
program's time and not the samples'.  It is a quadratic sweep at dim 100:
numpy dispatch on short vectors, which is what all four workloads spend
most of their time on.  Kernels with a flop-bound mat-vec at dim 400 or
800 tracked the host worse on every workload but osc2d-levels.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

DIM = 100
ITERATIONS = 120
INTERVAL_S = 0.05
# Median sample time, in seconds, during the four workloads on the reference
# host: 2 vCPUs of a shared x86-64 machine, Python 3.11.7, numpy 2.4.6 with
# scipy-openblas 0.3.31.  Over minutes it ranged from 0.0014 to 0.0032 there.
REF_S = 0.0023


class Probe:
    """Times kernel samples taken from a SIGALRM handler."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((DIM, DIM)) / DIM
        for _ in range(10):  # warm-up
            self.sample()

    def sample(self) -> float:
        """Seconds one run of the kernel takes."""
        a = self._a
        d = np.diag(a).copy()
        hk = a[0].copy()
        c = np.zeros(DIM)
        t0 = time.perf_counter()
        for _ in range(ITERATIONS):
            y = hk + (a @ c - d * c) - c * float(hk @ c)
            q = d * d + 4.0 * hk * y
            c = np.where(q >= 0.0, y / (1.0 + np.sqrt(np.maximum(q, 0.0))), 0.5)
        return time.perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        """Take samples every INTERVAL_S inside the block.

        Yields the list the samples go to, as (start, seconds) pairs.
        """
        samples: list[tuple[float, float]] = []

        def on_alarm(signum, frame) -> None:
            start = time.perf_counter()
            samples.append((start, self.sample()))

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
