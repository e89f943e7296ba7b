"""Timed work in seconds at a fixed reference speed of the host.

The benchmark runs on a few cores of a shared host.  Its neighbours slow
those cores by up to a third for minutes at a time, and the slowdown shows
in CPU time as much as in wall time, so a plain wall-clock time measures
the neighbours as much as the program.

While a `HostClock` runs, SIGALRM fires every `PERIOD_S` and a fixed
pure-Python probe is timed in the handler.  The handler runs in the main
thread between bytecodes, so it interleaves with the program's own work.
A slice of wall time counts `REF_PROBE_S / probe time` of its length, the
probe being the one that ends the slice: a slice during which the host ran
at half speed counts half.  The sum over a region is its duration at the
reference speed, the speed at which the probe takes `REF_PROBE_S`.  That
is about an idle core of a 2.1 GHz Xeon, where these seconds are close to
wall seconds.

The probe costs about 0.3% of the time it measures, on every commit alike.
"""
from __future__ import annotations

import bisect
import signal
from time import perf_counter

PERIOD_S = 0.01
REF_PROBE_S = 25e-6


def probe() -> int:
    x = 0
    for i in range(300):
        x += i * i % 7
    return x


class HostClock:
    """Samples the host's speed while it runs; converts wall intervals."""

    def __init__(self):
        self.times: list[float] = []  # when each probe ended
        self.factors: list[float] = []  # REF_PROBE_S / probe time

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        probe()
        t1 = perf_counter()
        self.times.append(t1)
        self.factors.append(REF_PROBE_S / (t1 - t0))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    def seconds(self, t0: float, t1: float) -> float:
        """Reference-speed seconds of the wall interval [t0, t1].

        The tail after the last probe inside the interval takes the factor
        of the next probe, or of the last one if none followed.
        """
        n = len(self.times)
        if not n:
            raise RuntimeError("the host clock took no samples")
        i = bisect.bisect_right(self.times, t0)
        total, prev = 0.0, t0
        while i < n and self.times[i] < t1:
            total += (self.times[i] - prev) * self.factors[i]
            prev = self.times[i]
            i += 1
        return total + (t1 - prev) * self.factors[min(i, n - 1)]
