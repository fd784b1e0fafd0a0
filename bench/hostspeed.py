"""Host-speed sampling: a fixed reference computation timed while jobs run.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pass can take 30-50% longer for a minute at a time, and the speed
also swings within a second.  Raw wall times then spread across runs by
more than the bounds a regression check can use.  The worker therefore
times this module's reference kernel -- rational coefficients summed into a
dict keyed by tuples, the sparse-vector arithmetic masseykit spends its
time in, but none of masseykit's code -- every ``PERIOD_S`` seconds of wall
time from a SIGALRM handler, so long jobs are sampled while they run.  A
pass's times are then scaled by

    scale = NOMINAL_S / (mean kernel time over the pass)

which reports them in the seconds they would take on a host that runs the
kernel in ``NOMINAL_S``; a job long enough to be sampled is scaled by the
samples taken while it ran instead.  The time spent in the handler is
taken out of the job times first.  A change to masseykit cannot move the
kernel's time: the kernel runs none of its code, and garbage collection is
off while it runs, so the program's heap is never traversed from it.  The
scaled times therefore move with the program, the raw times with the
program and the host; both are recorded.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.0008  # about one sample on an unloaded 2-vCPU x86-64 VM
PERIOD_S = 0.05     # wall time between two samples

_TERMS = 150


def kernel() -> int:
    """Sum seeded rational terms into a sparse vector; returns its size."""
    rng = random.Random(3)
    vec = {}
    for _ in range(_TERMS):
        key = (rng.randrange(500), rng.randrange(500))
        vec[key] = vec.get(key, Fraction(0)) + \
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return len(vec)


SIZE = kernel()


def probe() -> float:
    """Seconds for one run of the kernel, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        if kernel() != SIZE:
            raise AssertionError("reference kernel changed its result")
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times the kernel every PERIOD_S seconds of wall time between start()
    and stop().  Each sample runs the kernel twice and keeps the second
    time: the first run brings the kernel back into the caches the program
    has just used, so the sample reads the host's speed rather than how
    much of the cache the program occupies.  ``spent`` is the time the
    handler has taken so far; ``clock()`` is wall time less ``spent``, the
    clock the worker measures with."""

    def __init__(self):
        self.samples: list[float] = []
        self.at: list[float] = []      # clock() when each sample was taken
        self.spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _tick(self, _signum=None, _frame=None) -> None:
        t0 = time.perf_counter()
        probe()
        self.samples.append(probe())
        self.at.append(t0 - self.spent)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def scale(self, begin: float, end: float) -> float | None:
        """NOMINAL_S over the mean sample taken between clock() readings
        begin and end; None when no sample fell in between."""
        got = [d for t, d in zip(self.at, self.samples) if begin <= t <= end]
        return NOMINAL_S / statistics.fmean(got) if got else None
