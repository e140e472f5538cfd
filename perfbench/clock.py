"""Timings scaled to a reference CPU speed.

On a cloud guest that shares its cores with other tenants, the speed a
process gets drifts by a third or more over periods of seconds.
While a worker measures, an interval timer interrupts it every
``PERIOD_S`` to run a short calibration: a fixed piece of work that
uses no driftlab code. A timing is the wall time of its span less the
calibrations inside it, multiplied by the calibration's reference
duration over the median calibration time around it: seconds at the
reference speed. A change to driftlab moves the timings, never the
calibration. Raw seconds are reported next to the scaled ones.

The calibration is Python bytecode and numpy calls on tiny arrays, the
mix of training and of the exact OT solver. Its arrays are
a few kB, so its time hardly depends on what driftlab leaves in the
cache.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.1   # calibration interval while a worker measures
WINDOW_S = 0.25  # calibrations within this distance of a span count

_A = np.linspace(0.0, 1.0, 20 * 32).reshape(20, 32)
_W = np.eye(32) * 0.5


def interpreter_work():
    s = 0
    for i in range(12000):
        s += i * i
    a = _A
    for _ in range(120):
        a = np.maximum(a @ _W, 0.01 * a) + 0.25
    return s, a


# Typical duration of the calibration in a running worker on the
# machine of the baseline (2-vCPU KVM guest, Python 3.11, numpy 2.4 with
# one BLAS thread), so that scaled timings read close to typical raw ones.
REFERENCE_S = 0.0015


class Clock:
    """Calibration samples, and spans measured between them."""

    def __init__(self):
        self.times = []    # midpoints of calibrations, ascending
        self.samples = []  # their durations
        self.spent = 0.0   # total time inside calibrations
        self._busy = False

    def calibrate(self, *_signal_args):
        if self._busy:  # a tick that arrives during a calibration is dropped
            return
        self._busy = True
        t0 = perf_counter()
        interpreter_work()
        t1 = perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._busy = False

    def start(self):
        """Calibrate now and every PERIOD_S until stop()."""
        self.calibrate()
        self._previous = signal.signal(signal.SIGALRM, self.calibrate)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.calibrate()

    def mark(self):
        return perf_counter(), self.spent

    def scaled(self, begin, end):
        """Seconds between two marks, less calibrations, at the reference
        speed: scaled by the median calibration within WINDOW_S of the
        span, and at least the nearest one on each side."""
        (start, spent0), (stop, spent1) = begin, end
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, stop + WINDOW_S)
        lo = min(lo, max(bisect.bisect_left(self.times, start) - 1, 0))
        hi = max(hi, min(bisect.bisect_right(self.times, stop) + 1, len(self.times)))
        raw = (stop - start) - (spent1 - spent0)
        return raw * REFERENCE_S / statistics.median(self.samples[lo:hi]), raw
