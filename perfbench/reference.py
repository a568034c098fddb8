"""The reference kernel every timing is normalised by.

The host's speed drifts between states far apart, each lasting from a
fraction of a second to tens of seconds, so a raw wall time says more about
the moment than about the code. The kernel is a fixed piece of stdlib work
of the same kind as geocycle's (Fraction Gauss-Jordan elimination), timed
with the cyclic GC paused so that the program's heap cannot change its
duration.

A timed span is bracketed by full kernel runs, and while it runs a SIGALRM
handler times one repeat of the kernel every SAMPLE_PERIOD_S; the handler's
time is taken out of the span. The span then reads as its wall time times
NOMINAL_S over the kernel time estimated from the mean of those samples:
the time it would take on a host where the kernel takes NOMINAL_S. Spans
longer than a second get most of their estimate from the samples taken
during them, so a change of state in the middle of a span is seen.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import time
from fractions import Fraction

NOMINAL_S = 0.050  # figures read as on a host where the kernel takes 50 ms
REPEATS = 16
SIZE = 9
SAMPLE_PERIOD_S = 0.1


def _matrix() -> list[list[Fraction]]:
    x = 12345
    rows = []
    for _ in range(SIZE):
        row = []
        for _ in range(SIZE):
            x = (x * 1103515245 + 12345) % 2**31
            row.append(Fraction(x % 19 - 9))
        rows.append(row)
    return rows


_MATRIX = _matrix()


def kernel(repeats: int = REPEATS) -> Fraction:
    """Reduce the fixed matrix to the identity `repeats` times."""
    last = Fraction(0)
    for _ in range(repeats):
        rows = [list(r) for r in _MATRIX]
        for c in range(SIZE):
            piv = next(i for i in range(c, SIZE) if rows[i][c] != 0)
            rows[c], rows[piv] = rows[piv], rows[c]
            inv = rows[c][c]
            rows[c] = [v / inv for v in rows[c]]
            for i in range(SIZE):
                if i != c and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
        last = rows[-1][-1]
    return last


def timed(repeats: int = REPEATS) -> float:
    """Wall seconds of one kernel run with the cyclic GC paused, scaled to
    REPEATS repeats."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel(repeats)
        return (time.perf_counter() - start) * REPEATS / repeats
    finally:
        if enabled:
            gc.enable()


class Normaliser:
    """Brackets consecutive spans with reference timings (the timing after
    one span is the timing before the next) and samples the kernel during
    each span."""

    def __init__(self):
        self.before = timed()
        self.reference_s: list[float] = [self.before]
        self.sampled_ns = 0  # time spent in samples so far, kept out of spans
        self._samples: list[float] = []

    def clock_ns(self) -> int:
        """A monotonic clock that stops while a sample runs."""
        return time.perf_counter_ns() - self.sampled_ns

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        self._samples.append(timed(1))
        self.sampled_ns += time.perf_counter_ns() - start

    @contextlib.contextmanager
    def sampling(self):
        """Sample the kernel every SAMPLE_PERIOD_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        """Close the current span: NOMINAL_S over the mean of the reference
        timings on either side of it and those sampled during it."""
        after = timed()
        self.reference_s.append(after)
        samples = [self.before, after] + self._samples
        self.before = after
        self._samples = []
        return NOMINAL_S / (sum(samples) / len(samples))
