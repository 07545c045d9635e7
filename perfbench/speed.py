"""Machine-speed probe for timing on a shared host.

On a shared virtual machine the speed of a vCPU drifts by as much as a
third for minutes at a time; no run length averages that away, and it
moves CPU time as much as wall time.  The probe times a fixed stdlib loop
a few times a second while a run measures.  The loop mixes Fraction
arithmetic, tuple splicing with bisect, and dict updates, the operations
of the program's own inner loops.  A run's times are then scaled by
``NOMINAL_S / median(samples)``: seconds at the speed at which the loop
takes NOMINAL_S.  The program under test never runs inside the loop, so a
change to it moves the scaled times as much as the raw ones.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction
from typing import List

NOMINAL_S = 0.01
PERIOD_S = 0.5


def calibration_loop() -> int:
    acc: dict = {}
    f = Fraction(1, 3)
    for i in range(1500):
        k = (i % 17, i % 5)
        acc[k] = acc.get(k, 0) + f * i
    mono: tuple = ()
    seen: dict = {}
    for i in range(400):
        g = (i % 7, i % 2, (i * 37) % 23 - 11)
        pos = bisect.bisect_left(mono, g)
        if pos < len(mono) and mono[pos] == g:
            mono = mono[:pos] + mono[pos + 1:]
        else:
            mono = mono[:pos] + (g,) + mono[pos:]
        seen[mono] = seen.get(mono, 0) + 1
    return len(acc) + len(seen)


class SpeedProbe:
    """Samples the calibration loop on demand and on a SIGALRM timer.

    ``spent`` is the total time inside samples, so callers can take it out
    of the intervals they time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: List[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = self.clock()
            calibration_loop()
            d = self.clock() - t0
        finally:
            self._busy = False
        self.samples.append(d)
        self.spent += d

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        """Scale for the times measured while the samples were taken."""
        return NOMINAL_S / statistics.median(self.samples)
