"""A host-speed probe that runs inside a timed job.

On a shared host the speed a process gets changes by up to 1.75 times
within minutes, as neighbours come and go, and a job's wall time moves
with it.  The probe measures that speed at the same moments as the job:
every `interval` seconds of wall time a SIGALRM handler runs one pass of
a fixed reference kernel and times it.  The mean pass time over a job is
the host's speed averaged over that job, sampled uniformly in time, and

    nominal time = measured time * NOMINAL_PASS_S / mean pass time

is the job's time on a host where a pass takes `NOMINAL_PASS_S`.  The
kernel does what ttkit's inner loops do, dictionary updates keyed by
exponent tuples with `Fraction` and modular `int` coefficients, so it
slows as they do; it imports nothing from ttkit, so a change to ttkit
cannot move it.  The probe's own time is taken out of the job's.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# The probe kernel's pass time that defines a nominal second.  On the
# 2-vCPU host described in README.md a pass took 1.8 ms to 3.7 ms as the
# host's load changed.
NOMINAL_PASS_S = 0.002
INTERVAL_S = 0.05

_P = 32003
_A = {(i, j, k): Fraction(i + 1, j + 2)
      for i in range(4) for j in range(4) for k in range(3)}
_B = {(i, j, 0): Fraction(3, i + 1) for i in range(3) for j in range(3)}
_AP = {m: c.numerator * 7 % _P for m, c in _A.items()}
_BP = {m: c.numerator * 11 % _P for m, c in _B.items()}


def kernel() -> None:
    """One pass: the products A*B over QQ and over GF(32003)."""
    qq: dict = {}
    for ma, ca in _A.items():
        for mb, cb in _B.items():
            m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
            qq[m] = qq.get(m, 0) + ca * cb
    gf: dict = {}
    for ma, ca in _AP.items():
        for mb, cb in _BP.items():
            m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
            gf[m] = (gf.get(m, 0) + ca * cb) % _P


class HostProbe:
    """Samples the host's speed while a job runs; use as a context manager."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.passes = 0
        self.wall_s = 0.0      # time spent in the probe, wall clock
        self.cpu_s = 0.0       # and process CPU time
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:         # a tick that lands inside a pass is dropped
            return
        self._busy = True
        c0, t0 = time.process_time(), time.perf_counter()
        kernel()
        t1, c1 = time.perf_counter(), time.process_time()
        self.passes += 1
        self.wall_s += t1 - t0
        self.cpu_s += c1 - c0
        self._busy = False

    def __enter__(self) -> "HostProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.passes:    # a job shorter than one interval
            self._tick(None, None)

    @property
    def pass_s(self) -> float:
        """Mean pass time."""
        return self.wall_s / self.passes

    def record(self) -> dict:
        return {"passes": self.passes, "pass_s": self.pass_s, "wall_s": self.wall_s}
