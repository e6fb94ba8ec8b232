"""Wall-clock timing scaled by the speed of the machine at the moment.

The speed of the machine the benchmark was tuned on drifts by up to 2.4x in
phases of seconds to minutes, while CPU time stays equal to wall time, so a
raw time measures the machine's phase as much as the program.  A `SpeedClock`
samples that speed all through a timed run: every INTERVAL_S seconds a
SIGALRM handler, in the benchmark's one thread, times a fixed reference op.
An interval [a, b] is then reported as

    (b - a - reference time inside it) * REFERENCE_NOMINAL_S / reference median

where the reference median is taken over the samples within WINDOW_S of the
interval.  The result is in reference seconds: the time the interval would
have taken on a machine that runs the reference op in REFERENCE_NOMINAL_S.

The reference op runs the library's own kind of work (a charpoly and a
census report) on `reflib`, a frozen copy of the library, so it shares the
library's mix of calls, allocations and table lookups and slows with it in
a slow phase, yet does not move when the library changes: a change to the
library moves reference seconds in full.  A small pure-Python kernel was
tried first; it tracked the phases only in part, since the library's ops
and the kernel did not speed up or slow down by the same factor.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

from reflib import census, drinfeld, ff, frobenius, polyring

INTERVAL_S = 0.2
WINDOW_S = 1.0
REFERENCE_NOMINAL_S = 4.0e-3  # medians over a run read 4.6 to 4.9 ms on the tuning machine


class Reference:
    """Fixed work on the frozen copy: the Frobenius charpoly of two modules
    over F_81, each built from scratch, and census.full_report(T + 1, 2)
    over F_3."""

    def __init__(self):
        F3 = ff.field_make(3, 1)
        self.P = next(P for P in polyring.monic_irreducibles(F3, 1) if all(P.coeffs))
        self.L = ff.ext_make(F3, 4)
        self.L.frob_iter(self.L.one, 1)  # builds the Frobenius tables

    def __call__(self):
        for gamma, g, delta in ((2, 5, 7), (3, 11, 29)):
            frobenius.charpoly(drinfeld.DrinfeldModule(self.L, gamma, g, delta))
        census.full_report(self.P, 2)


class SpeedClock:
    """Use as a context manager around a timed run, then call `scaled`."""

    def __init__(self):
        self.reference = Reference()
        self.starts = []  # perf_counter when each reference sample began
        self.times = []  # the reference op's duration in that sample
        self.spent = 0.0  # total time the handler has taken

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.reference()
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.times.append(dt)
        self.spent += dt

    def __enter__(self):
        for _ in range(5):  # so that even a run shorter than INTERVAL_S has samples
            self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def measure(self, fn, *args):
        """(start, seconds, result) of fn(*args), the reference's time taken out."""
        a = time.perf_counter()
        spent = self.spent
        result = fn(*args)
        raw = time.perf_counter() - a - (self.spent - spent)
        return a, raw, result

    def factor(self, a, b):
        """REFERENCE_NOMINAL_S over the reference's median time near [a, b]."""
        lo = bisect.bisect_left(self.starts, a - WINDOW_S)
        hi = bisect.bisect_right(self.starts, b + WINDOW_S)
        if hi - lo < 5:  # too few samples nearby: take the five nearest
            mid = bisect.bisect_left(self.starts, (a + b) / 2)
            lo, hi = max(0, mid - 3), min(len(self.times), mid + 2)
        return REFERENCE_NOMINAL_S / statistics.median(self.times[lo:hi])

    def scaled(self, a, raw):
        """A raw time that started at a, in reference seconds."""
        return raw * self.factor(a, a + raw)

    def reference_median_s(self):
        return statistics.median(self.times)
