"""Host-speed calibration: a fixed stdlib workload timed between ops.

The benchmark hosts share cores with other tenants.  There a pure-Python
loop runs up to 1.6 times slower for seconds at a time, and the slowdown
shows in process CPU time as well, so neither wall nor CPU time of an op is
steady from run to run.  The worker therefore measures the host's speed
around and during every op with a small, fixed workload on ``fractions``
and dicts, the kinds of work ``cutproject`` spends its time on: a
calibration before and after the op, and one kernel run every
``PERIOD_S`` seconds while it runs, from a wall-clock interval timer.
``run.py`` scales each op by a fixed reference kernel time over the mean of
those samples, which expresses every timing at one reference host speed.  The calibration imports nothing from ``cutproject``,
so no change to the program can move it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

REPEATS = 3
PERIOD_S = 0.05


def _kernel() -> int:
    # the garbage collector stays off: a collection would scan the caller's
    # young objects, which would make the kernel time depend on the program
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _work()
    finally:
        if enabled:
            gc.enable()


def _work() -> int:
    total = 0
    table = {}
    for i in range(1, 200):
        f = Fraction(i, i + 3) * Fraction(i + 1, 7) + Fraction(1, i)
        table[(f.numerator % 101, i)] = f
        total += f.denominator % 13
    return total + len(table)


def calibration(repeats: int = REPEATS) -> float:
    """Seconds for one kernel run: the median of ``repeats`` timed runs."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Sampler:
    """Times a block and samples the host speed while it runs.

    The interval timer interrupts the block between two bytecodes and runs
    one kernel in the signal handler; the handler's time is taken out of
    ``elapsed``.  Only the main thread may use it, and only one at a time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.elapsed = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = time.perf_counter() - self._start - self.spent
        signal.signal(signal.SIGALRM, self._previous)
        return False
