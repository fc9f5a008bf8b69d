"""Host-speed meter: timings scaled to a fixed host speed.

On a shared machine the same Python work runs at very different speeds from
one second to the next: a fixed dict-arithmetic loop took between 10 and 24
ms on a 2-vCPU cloud VM, changing within seconds and with no steal time, so
process CPU time swings with it.  A run's raw seconds measure the
neighbours as much as the program.

While a ``Meter`` is active, a wall-clock interval timer interrupts the
program every ``INTERVAL_S`` and times ``kernel()``, a fixed truncated
Taylor-series product written like the program's own hot loop (dict of
exponent tuples, tuple keys, boxed floats) but independent of its code.
``Meter.time`` returns a span's busy time, the timer's interruptions taken
out; ``Meter.scaled`` multiplies it by the host's relative speed over the
span, ``mean(REF_KERNEL_S / d)`` over the kernel durations ``d`` sampled
during it (or nearest to it, for a short span).  Ticks come at even wall
intervals, so that mean is the time-average speed: scaled seconds are the
time the span would take on a host where the kernel takes
``REF_KERNEL_S``.  Work the program saves shows as fewer scaled seconds;
a host that slows down does not.
"""

from __future__ import annotations

import bisect
import random
import signal
import time
from dataclasses import dataclass
from typing import Callable, List, Tuple, TypeVar

INTERVAL_S = 0.025
# The kernel's duration in the fast state of the host above; scaled seconds
# are seconds at that speed.
REF_KERNEL_S = 0.0005
# A span shorter than this many ticks borrows the nearest samples around it.
MIN_SAMPLES = 8

_ORDER = 4
_KEYS = [(a, b, c) for a in range(_ORDER + 1) for b in range(_ORDER + 1)
         for c in range(_ORDER + 1) if a + b + c <= _ORDER]
_rng = random.Random(0)
_LEFT = {k: _rng.uniform(-1.0, 1.0) for k in _KEYS}
_RIGHT = {k: _rng.uniform(-1.0, 1.0) for k in _KEYS}

T = TypeVar("T")


def kernel() -> dict:
    """Product of two 3-variable series truncated at order 4."""
    out: dict = {}
    for ka, va in _LEFT.items():
        oa = sum(ka)
        for kb, vb in _RIGHT.items():
            if oa + sum(kb) > _ORDER:
                continue
            key = tuple(a + b for a, b in zip(ka, kb))
            out[key] = out.get(key, 0.0) + va * vb
    return out


@dataclass(frozen=True)
class Span:
    """A timed region: wall start and end, and busy seconds without the ticks."""

    start: float
    end: float
    busy: float


class Meter:
    """Samples the host's speed while active (a context manager; main thread only)."""

    def __init__(self) -> None:
        self.times: List[float] = []      # start of each kernel sample
        self.durations: List[float] = []  # its duration
        self.paused = 0.0                 # seconds spent in ticks
        self._in_tick = False
        self._previous = None

    def sample(self) -> None:
        """Time one kernel run; called by the timer, or directly to add samples."""
        if self._in_tick:
            return
        self._in_tick = True
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.times.append(start)
        self.durations.append(took)
        self._in_tick = False
        self.paused += time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        for _ in range(MIN_SAMPLES):
            self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(MIN_SAMPLES):
            self.sample()

    def time(self, fn: Callable[[], T]) -> Tuple[T, Span]:
        """Call ``fn``; return its result and its span."""
        paused = self.paused
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        return result, Span(start, end, (end - start) - (self.paused - paused))

    def speed(self, span: Span) -> float:
        """Mean of ``REF_KERNEL_S / d`` over the samples in the span, or the
        ``MIN_SAMPLES`` nearest its middle when it holds fewer."""
        lo = bisect.bisect_left(self.times, span.start)
        hi = bisect.bisect_right(self.times, span.end)
        if hi - lo < MIN_SAMPLES:
            middle = (span.start + span.end) / 2.0
            lo = hi = bisect.bisect_left(self.times, middle)
            while hi - lo < min(MIN_SAMPLES, len(self.times)):
                take_left = lo > 0 and (
                    hi == len(self.times)
                    or middle - self.times[lo - 1] <= self.times[hi] - middle)
                if take_left:
                    lo -= 1
                else:
                    hi += 1
        durations = self.durations[lo:hi]
        if not durations:
            raise RuntimeError("no host-speed samples: the meter was never active")
        return sum(REF_KERNEL_S / d for d in durations) / len(durations)

    def scaled(self, span: Span) -> float:
        """The span's busy seconds at the reference host speed."""
        return span.busy * self.speed(span)
