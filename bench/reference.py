"""A fixed reference loop that measures how fast the host runs Python now.

The host is shared and the speed of identical code drifts by up to a
quarter over minutes.  While a unit of work runs, an interval timer
interrupts it every REF_INTERVAL_S and times one reference() call in the
signal handler; the unit's time excludes those calls.  The reported times
are scaled by ``REF_NOMINAL_S / median(reference samples)``: the time the
work would have taken on a host where the loop takes ``REF_NOMINAL_S``.
The loop uses no cporders code and allocates nothing that outlives an
iteration, so a change to the program does not move it and a change in the
program's heap does not slow it.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_LOOPS = 300_000
# Median time of one reference() call on a 2-core Intel Xeon at 2.1 GHz
# under CPython 3.11.7.  Scaled times read in seconds of that host.
REF_NOMINAL_S = 0.044
REF_RESULT = 3693111792  # reference()'s return value, so the loop cannot be skipped
# One sample per 0.2 s of work costs about a fifth of the run.
REF_INTERVAL_S = 0.2


def reference() -> int:
    x = 0
    for i in range(REF_LOOPS):
        x = (x * 31 + i) & 0xFFFFFFFF
    return x


def _sample() -> tuple:
    """(start, end) of one reference() call."""
    start = time.perf_counter()
    value = reference()
    end = time.perf_counter()
    if value != REF_RESULT:
        raise RuntimeError(f"reference loop returned {value}, not {REF_RESULT}")
    return start, end


def ref_samples(count: int) -> list:
    """Times of ``count`` reference() calls, in seconds."""
    return [end - start for start, end in (_sample() for _ in range(count))]


def scale(samples) -> float:
    """Factor that turns a time measured next to ``samples`` into seconds
    of the nominal host."""
    return REF_NOMINAL_S / statistics.median(samples)


class Sampler:
    """While entered, time one reference() call every REF_INTERVAL_S from a
    SIGALRM handler.  ``samples`` keeps every call's time and
    :meth:`paused` the part of an interval that the calls took."""

    def __init__(self):
        self.spans = []

    @property
    def samples(self) -> list:
        return [end - start for start, end in self.spans]

    def paused(self, start: float, end: float) -> float:
        return sum(b - a for a, b in self.spans if start <= a and b <= end)

    def _handler(self, signum, frame):
        self.spans.append(_sample())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S / 2, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
