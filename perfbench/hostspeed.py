"""Host speed, measured by a fixed reference loop timed while the benchmark runs.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pure-Python loop takes anywhere from 1x to 2x its best time, in phases
lasting from under a second to minutes, with no steal time to show for it
(CPU time drifts with wall time).  A run's wall-clock median therefore
depends on how busy the host was, more than the benchmark's bounds allow.

So every end-to-end time is reported at reference speed: the measured time
times REF_NOMINAL_S divided by the mean time of the reference loop in the
samples taken around it.  The reference loop is benchmark code that calls
nothing in supercoh, so a change to the program moves a normalized time by
the same factor as its wall time, while a slow phase of the host slows the
operation and the reference loop together and mostly cancels.  (Not fully:
on axioms_warm the operations slowed by the loop's factor to a power of
1.1 to 1.5.)  The wall-clock figures are kept in the run's record.
"""

from __future__ import annotations

import bisect
import contextlib
import random
import signal
import statistics
import time

# Median time of reference() on a 2-core Intel Xeon VM under CPython 3.11
# at a quiet time; it only sets the scale of the normalized times.
REF_NOMINAL_S = 0.0020
# While a timed phase runs, SIGALRM runs the reference loop every EVERY_S
# seconds of wall time, inside operations too; clock() leaves that time out.
EVERY_S = 0.02
# An operation is normalized by the samples that start within this many
# seconds of its interval (by the nearest sample on each side if none do).
WINDOW_S = 0.05

_rng = random.Random(20230616)
_MATRIX = tuple(tuple(_rng.randrange(-9, 10) for _ in range(9)) for _ in range(8))
_KEYS = tuple(_rng.randrange(1 << 20) for _ in range(256))


def reference() -> int:
    """Fixed pure-Python work of the kind supercoh does: integer row
    reduction on lists, and dictionary updates keyed by tuples."""
    return sum(_reference_once() for _ in range(10))


def _reference_once() -> int:
    m = [list(row) for row in _MATRIX]
    r = 0
    for c in range(len(m[0])):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        g = m[r][c]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = [(g * a - f * b) % 1000003 for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    counts: dict = {}
    for k in _KEYS:
        key = (k & 63, k >> 14)
        counts[key] = counts.get(key, 0) + k % 7
    return r + len(counts)


class HostSpeed:
    """Reference-loop samples, (start, seconds), in time order."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.paused = 0.0  # seconds spent in the reference loop

    def sample(self, *_) -> None:
        start = time.perf_counter()
        reference()
        seconds = time.perf_counter() - start
        self.samples.append((start, seconds))
        self.paused += seconds

    def clock(self) -> float:
        """perf_counter() less the time spent in the reference loop."""
        return time.perf_counter() - self.paused

    @contextlib.contextmanager
    def sampling(self):
        """Sample before, after, and every EVERY_S seconds during the block."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()

    def extend(self, samples) -> None:
        self.samples.extend(samples)
        self.samples.sort()

    def factor(self, start: float, end: float) -> float:
        """REF_NOMINAL_S over the mean reference time around [start, end]."""
        starts = [s for s, _ in self.samples]
        lo = bisect.bisect_left(starts, start - WINDOW_S)
        hi = bisect.bisect_right(starts, end + WINDOW_S)
        near = self.samples[lo:hi]
        if not near:
            near = self.samples[max(lo - 1, 0) : lo + 1]
        if not near:
            raise RuntimeError("no reference-loop sample taken")
        return REF_NOMINAL_S / statistics.fmean(t for _, t in near)

    def normalize(self, start: float, seconds: float) -> float:
        """seconds of work that began at perf_counter() == start, at reference speed."""
        return seconds * self.factor(start, start + seconds)
