"""A reference clock: the time of a fixed kernel, sampled all through a run.

On a shared host the speed swings: the same query runs at two or three
speeds up to 1.9x apart, in stretches from a fraction of a second to
minutes, while its CPU time equals its wall time. A run that happens to fall
in a slow stretch reads slow however long it is.

`RefClock` times a fixed numpy kernel (the same mix of small-array numpy calls
and interpreter work xpr's query, training and setup paths are made of) from
a SIGALRM handler every `PERIOD_S` seconds. An operation's time divided by the
kernel's mean time around it is its cost in *ref* units: a ratio of two
times taken on the same core at the same moment, which the host's speed
swings move far less than either time. The handler's own time is taken back
out of every operation it interrupted.
"""
from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.05
#: readings this far either side of an operation also describe its moment
MARGIN_S = 0.25
#: seconds per ref for a metric that must read in seconds: the kernel's time
#: in the fast speed of the 2-vCPU Intel Xeon VM the benchmark was built on
REF_S = 0.26e-3
_ROUNDS = 60
_BLOCK = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)


def kernel() -> float:
    """The reference work: about 0.45 ms on one vCPU of an Intel Xeon VM."""
    s = 0.0
    for _ in range(_ROUNDS):
        s += float((_BLOCK * 1.0001).sum())
    return s


class RefClock:
    def __init__(self):
        self.starts = []   # perf_counter at the start of each reading
        self.times = []    # seconds the kernel took
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        # restart interrupted system calls, including numpy's C-level writes
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _between(self, t0, t1) -> slice:
        return slice(bisect.bisect_left(self.starts, t0),
                     bisect.bisect_right(self.starts, t1))

    def busy(self, t0, t1) -> float:
        """Seconds the readings taken inside [t0, t1] cost that interval."""
        return sum(self.times[self._between(t0, t1)])

    def unit(self, t0, t1) -> float:
        """Mean kernel time over [t0 - MARGIN_S, t1 + MARGIN_S]."""
        times = self.times[self._between(t0 - MARGIN_S, t1 + MARGIN_S)]
        if not times:
            raise RuntimeError("no reference reading near an operation")
        return sum(times) / len(times)
