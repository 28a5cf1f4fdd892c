"""Rescale measured times to a reference machine speed.

The benchmark runs on shared machines whose speed drifts by up to 30%
between runs and within one, in bursts of seconds, and the drift slows
every part of this code alike: next to a fixed kernel of small numpy
solves and eigenvalue calls, an op's time varied by 0.5% across runs where
its raw time varied by 30%.  So the kernel is timed every CAL_INTERVAL_S,
between ops and, from a timer signal, inside ops longer than that.  An
op's time, less the kernel runs inside it, is multiplied by CAL_REF_S over
the mean kernel time from the run just before the op to the run just
after it.  The result reads as the time on a machine where the kernel
takes CAL_REF_S.
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager

import numpy as np

#: kernel time that defines the reference speed (the kernel's typical time
#: on a shared 2-core x86-64 virtual machine, numpy 2.4, OpenBLAS 0.3.31)
CAL_REF_S = 2.0e-3
CAL_INTERVAL_S = 0.05

# bound now, so that the tracer's wrappers never see the kernel's calls
_solve, _eigvals = np.linalg.solve, np.linalg.eigvals
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_B = _rng.standard_normal((4, 1)) + 0j
_H = _rng.standard_normal((8, 8)) + 0j
_I = np.eye(4)


def kernel() -> float:
    acc = 0.0
    for k in range(100):
        acc += abs(_solve(_A + k * _I, _B)[0, 0])
    for k in range(3):
        acc += float(np.abs(_eigvals(_H + k)).sum())
    return acc


class Clock:
    """Kernel timings along the run, and times rescaled by them."""

    def __init__(self):
        self.cal_t: list[float] = []
        self.cal_dt: list[float] = []
        self._busy = False

    def calibrate(self) -> None:
        if self._busy:  # the timer fired during a calibration
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel()
            self.cal_t.append(t0)
            self.cal_dt.append(time.perf_counter() - t0)
        finally:
            self._busy = False

    def maybe_calibrate(self) -> None:
        if not self.cal_t or time.perf_counter() - self.cal_t[-1] > CAL_INTERVAL_S:
            self.calibrate()

    @contextmanager
    def sampling(self):
        """Calibrate from SIGALRM every CAL_INTERVAL_S, inside ops too."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.calibrate())
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, t0: float, dt: float) -> float:
        """dt at the reference speed; needs a calibration before t0 and one
        after t0 + dt."""
        before = bisect.bisect_right(self.cal_t, t0) - 1
        after = bisect.bisect_left(self.cal_t, t0 + dt)
        if before < 0 or after == len(self.cal_t):
            raise ValueError("interval is not bracketed by calibrations")
        inside = sum(self.cal_dt[before + 1:after])
        kernel_s = sum(self.cal_dt[before:after + 1]) / (after - before + 1)
        return (dt - inside) * CAL_REF_S / kernel_s
