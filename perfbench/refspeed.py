"""A fixed reference kernel that gauges how fast the machine runs, while the
benchmark runs.

The benchmark was built on a few cores of a shared host, whose load changes
the speed of every instruction the benchmark runs: by ±15% between 10 s
windows and by up to 2x over minutes, for the library and for this kernel
alike.  While a `Gauge` is on, a timer signal interrupts the run every
`PERIOD_S` and times one pass of the kernel.  The wall time of each op is
then scaled, by the samples taken during it, to the speed at which the
kernel takes `NOMINAL_S`.  The kernel calls nothing in the library, so a
change to the library moves the scaled times as it moves the wall times;
the host's drift divides out.

The kernel mixes the kinds of work the library does: Python calls over
tuples, lists and a dict, like a clause scan (splits, hill climbing, the SAT
encoder and solver), int64 numpy passes (the transforms and the naive
oracle) and bitwise operations on 64 Kibit Python ints (the bitset sumset).
This mix followed the library's speed more closely than a tight int loop in
place of the clause scan, most of all on the SAT solver.

Time spent in the kernel is excluded from `clock()`, which the runner and
the tracer use in place of `perf_counter()`.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

# About the kernel's time when the timer runs it inside a benchmark pass, on
# the 2-vCPU Xeon the benchmark was built on (a tight loop of it runs about
# twice as fast, its data still in cache).  Fixed, so scaled times compare
# across runs and commits.
NOMINAL_S = 0.004
PERIOD_S = 0.1  # wall time between two kernel passes

_ARRAY = np.arange(1 << 13, dtype=np.int64)
_BIG = (1 << (1 << 16)) // 3  # alternating bits, 64 Kibit
# Wall seconds the kernel has taken so far.  Per process, like the signal
# that runs it; it only grows, so `clock()` differences stay valid.
_spent = 0.0


def clock() -> float:
    """`perf_counter()` minus the time the kernel has taken."""
    return perf_counter() - _spent


def _satisfied(lit: int, assign: dict[int, bool]) -> bool:
    return assign.get(abs(lit)) == (lit > 0)


def kernel() -> int:
    """Interpreter, numpy and big-int work, about 50/20/30% of its time."""
    clauses = [(i % 97 + 1, -(i % 89 + 1), i % 83 + 1) for i in range(600)]
    assign, kept = {}, []
    for _ in range(2):
        for clause in clauses:
            if any(_satisfied(lit, assign) for lit in clause):
                continue
            kept.append(sorted(clause, key=abs))
            assign[abs(clause[0])] = clause[0] > 0
    a = _ARRAY
    for _ in range(26):
        a = (a * 7 + 3) & 0xFFFF
        a ^= a >> 3
    big = _BIG
    for i in range(160):
        big |= (big >> (1 + i % 16)) & _BIG
    return len(kept) ^ int(a[0]) ^ (big & 0xFFFF)


def warm_up() -> None:
    """Run the kernel a few times, so that its first samples are not cold."""
    for _ in range(5):
        kernel()


class Gauge:
    """Times the kernel every `PERIOD_S` while on; one gauge at a time.

    `scale(start, end)` turns the wall seconds of an interval into seconds
    at the nominal speed.  `start` and `end` are the sample counts when the
    interval began and ended; the samples taken in it, and the one on each
    side, give the interval's mean kernel speed.  The mean of speeds (not
    of times) keeps a sample that an interrupt stretched from counting much.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        global _spent
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        _spent += perf_counter() - t0

    def __enter__(self) -> Gauge:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: int, end: int) -> float:
        if not self.samples:  # on for less than one period: sample once now
            self._tick(None, None)
        near = self.samples[max(start - 1, 0):end + 1]
        return NOMINAL_S * sum(1 / s for s in near) / len(near)
