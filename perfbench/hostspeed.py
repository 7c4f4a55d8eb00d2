"""Times at the host's reference speed.

The benchmark runs on shared hosts whose speed swings as the machine's other
tenants come and go: every instruction runs 1.5 to 1.9 times slower for
stretches of tens of milliseconds to minutes.  A raw time then says more
about the neighbours than about the program.  So while a worker runs, a
SIGALRM handler runs a fixed reference unit of
pure-Python work (rational elimination, tuple trees, dict counting; nothing
from operad_forge) every INTERVAL_S seconds and records how long it took.
Every reported time is the time measured, less the time spent in the
reference units, multiplied by UNIT_S over the mean duration of the units
run within WINDOW_S of it: the time the work would take on a host that runs
one unit in UNIT_S seconds.  A program change moves the work's time and not
the unit's, so it moves the reported time; a slower host moves both, and
the reported time stays.

The clock now() excludes the time spent in reference units, so a timed
operation does not pay for the samples taken during it.  Garbage collection
is off inside a unit, so that the size of the program's heap does not leak
into the reference.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02  # one reference unit per 0.02 s
WINDOW_S = 0.03    # units within this distance of a time set its speed there
UNIT_S = 0.0015    # a unit's time at reference speed, near its time on an idle host

_MATRIX = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 4) for j in range(6)]
           for i in range(5)]


def _tree(n: int, k: int):
    if n == 1:
        return 1
    h = 1 + k % (n - 1)
    return ("x" if k & 1 else "y", _tree(h, k >> 1), _tree(n - h, k >> 2))


def reference_unit() -> int:
    """Fixed work, about 1.4 ms on an idle host; returns a checksum."""
    rows = [r[:] for r in _MATRIX + _MATRIX[::-1]]
    rank = 0
    for c in range(6):
        p = next((i for i in range(rank, 10) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(10):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    counts: dict = {}
    for k in range(300):
        t = _tree(10, k)
        counts[t] = counts.get(t, 0) + 1
    return rank + len(counts)


class Sampler:
    def __init__(self):
        self.at: list[float] = []     # now() when each unit started
        self.took: list[float] = []   # each unit's duration
        self.spent = 0.0              # time spent in units and their upkeep

    def now(self) -> float:
        """perf_counter() less the time spent in reference units."""
        while True:
            spent = self.spent
            t = perf_counter()
            if spent == self.spent:
                return t - spent

    def sample(self, *_) -> None:
        t0 = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        t1 = perf_counter()
        reference_unit()
        t2 = perf_counter()
        if enabled:
            gc.enable()
        self.at.append(t0 - self.spent)
        self.took.append(t2 - t1)
        self.spent += perf_counter() - t0

    def start(self) -> None:
        """Warm the unit up, then sample on a timer until stop()."""
        for _ in range(3):
            reference_unit()
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def speed(self, t: float) -> float:
        """UNIT_S over the mean duration of the units near now()-time t."""
        at, took = self.at, self.took
        lo, hi = bisect_left(at, t - WINDOW_S), bisect_right(at, t + WINDOW_S)
        if lo == hi:
            i = min(bisect_left(at, t), len(at) - 1)
            if i > 0 and t - at[i - 1] < at[i] - t:
                i -= 1
            lo, hi = i, i + 1
        return UNIT_S * (hi - lo) / sum(took[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        """The now()-interval [t0, t1] at reference speed: split at the
        samples, each piece scaled by the speed at its middle."""
        cuts = [t0, *self.at[bisect_right(self.at, t0):bisect_left(self.at, t1)], t1]
        return sum((b - a) * self.speed((a + b) / 2) for a, b in zip(cuts, cuts[1:]))


SAMPLER = Sampler()
now = SAMPLER.now
