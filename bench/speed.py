"""Machine-speed probe: turns raw seconds into seconds at a reference speed.

The benchmark shares its host with other tenants.  On the 2-vCPU reference
box the same ``verify_theorem(3)`` call took 32.6 to 44.6 s in five
consecutive runs, and the same 0.1 s call varied by 24 % between 20-call
windows a few seconds apart: the host, not the program, set the pace.

While the probe is active, a SIGALRM handler runs every ``PERIOD_S`` and
times a fixed job that uses only the standard library (``Fraction``
arithmetic and sorting of small tuples, the package's own kinds of inner
loop).  A slow job means a contended machine.  ``seconds`` returns the
time of an interval with the probe's own time removed and divided by the
contention factor near it: the mean job time of the samples in the
interval (at least ``MIN_SAMPLES`` nearest ones) over ``REFERENCE_S``, the
job's time on the reference box when it was least contended.  Over two
minutes of a repeated 0.2 s call, cut into 10 s windows, this brought the
spread of the window means from 0.23 to 0.04 (quartile distance over
median) on the reference box.

Call ``seconds`` after the probe has stopped, so that samples taken after
an interval can count for it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.25
REFERENCE_S = 0.0039
MIN_SAMPLES = 20


def _job():
    acc = Fraction(0)
    for i in range(1, 500):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
    sorted(tuple((i * 7919 + j) % 1000 for i in range(8)) for j in range(1500))


class SpeedProbe:
    def __init__(self):
        self.starts = []
        self.durations = []
        self.spent = 0.0  # seconds the probe took so far, to remove from timed intervals
        self._previous = None
        self._busy = False

    def __enter__(self):
        self.sample()  # so that even a short run has samples
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _on_alarm(self, signum, frame):
        if not self._busy:  # an alarm during a sample() call would nest samples
            self.sample()

    def sample(self):
        """Time the job once, now."""
        self._busy = True
        try:
            start = time.perf_counter()
            collecting = gc.isenabled()
            gc.disable()  # a collection the program's garbage triggers is the program's time
            try:
                _job()
            finally:
                if collecting:
                    gc.enable()
            end = time.perf_counter()
            self.starts.append(start)
            self.durations.append(end - start)
            self.spent += time.perf_counter() - start
        finally:
            self._busy = False

    def seconds(self, start, end, spent):
        """Seconds at reference speed of [start, end], of which ``spent`` was the probe's."""
        return (end - start - spent) / self.factor(start, end)

    def factor(self, start, end):
        """Mean job time near [start, end] over the reference job time."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            before = start - self.starts[lo - 1] if lo > 0 else float("inf")
            after = self.starts[hi] - end if hi < len(self.starts) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return statistics.fmean(self.durations[lo:hi]) / REFERENCE_S

    def mean_factor(self):
        return statistics.fmean(self.durations) / REFERENCE_S


class RawClock:
    """Seconds as measured, less the probe's own time: no speed correction."""

    def seconds(self, start, end, spent):
        return end - start - spent
