"""Host-speed calibration: report times at a fixed reference speed.

On a shared virtual machine two things slow the benchmark that prunekit does
not control.  The hypervisor takes the virtual CPU away (steal time: 5-18% of
the machine's CPU time while the benchmark was written, in bursts that double
the p95 of a run), and the host's speed drifts: by up to 1.4x over minutes and
up to 2x in flips lasting under a second.  Two sets of runs of the same code
made minutes apart then differ by more than any useful bound, whatever the
run length.  The benchmark therefore:

* times every interval in process CPU time, which leaves out the time the
  process did not run.  prunekit is single-threaded (BLAS is pinned to one
  thread) and waits on nothing but small file writes, so on an idle machine
  its CPU time is its wall time;
* times a fixed calibration kernel, which calls no prunekit code, every
  ``INTERVAL_S`` seconds of wall time from a timer signal, also in the middle
  of an op, and divides each interval by the host factor around it: the
  median kernel time over the interval widened by ``PAD_S`` on both sides,
  over ``REFERENCE_S``.  The kernel's own time is left out of any interval it
  interrupts.

A change to prunekit cannot move the kernel, so a slower or faster program
shows in full; only the host's share of the drift cancels.  The kernel mixes
the three kinds of work prunekit does: interpreter loops over dicts and sets,
many small numpy calls, and numpy passes over a 2.4 MB array.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

#: the kernel's CPU time at the reference speed: its median on an idle
#: 2-core x86-64 virtual machine with OpenBLAS numpy, rounded
REFERENCE_S = 0.0035
#: wall time between two kernel samples
INTERVAL_S = 0.1
#: an interval's host factor also uses the samples this close to it
PAD_S = 0.3

_SMALL = np.arange(64, dtype=float)
_BIG = np.random.default_rng(0).uniform(size=(300, 1000))
_ROW = np.full(1000, 0.5)


def kernel() -> float:
    acc = 0.0
    table: dict[int, int] = {}
    seen = set()
    for i in range(3000):
        table[i & 255] = table.get(i & 255, 0) + i
        seen.add(i % 97)
        acc += abs(i - 1500) * 0.5
    for i in range(300):
        acc += float(_SMALL[i % 64:].sum())
    for _ in range(3):
        acc += float(np.maximum(_BIG, _ROW).sum(axis=0)[0])
    return acc


class HostSpeed:
    """Kernel samples over a run, and the clock that leaves them out."""

    reference_s = REFERENCE_S

    def __init__(self):
        self.when: list[float] = []  # wall time of each sample
        self.took: list[float] = []  # its CPU time
        #: total CPU time spent sampling, to subtract from intervals that hold samples
        self.paused = 0.0
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a timer signal arriving inside a slow sample
            return
        self._busy = True
        when, c0 = time.perf_counter(), time.process_time()
        kernel()
        took = time.process_time() - c0
        self.when.append(when)
        self.took.append(took)
        self.paused += took
        self._busy = False

    def start(self) -> None:
        """Sample every ``INTERVAL_S`` seconds until :meth:`stop`."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def settle(self) -> None:
        """Wait while the timer takes the samples that follow the last interval."""
        time.sleep(PAD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> tuple[float, float, float]:
        """A reading to pass to :meth:`interval`."""
        return time.perf_counter(), time.process_time(), self.paused

    def interval(self, since) -> tuple[float, float, float]:
        """(wall start, wall end, CPU seconds without sampling) since ``since``."""
        wall0, cpu0, paused0 = since
        cpu = time.process_time() - cpu0 - (self.paused - paused0)
        return wall0, time.perf_counter(), cpu

    def scaled(self, interval: tuple[float, float, float]) -> float:
        """An interval's CPU seconds at the reference speed.  Call it once the
        samples up to ``PAD_S`` after the interval have been taken."""
        wall0, wall1, cpu = interval
        return cpu / self.factor(wall0, wall1)

    def factor(self, wall0: float, wall1: float) -> float:
        """Median kernel time from ``wall0 - PAD_S`` to ``wall1 + PAD_S`` over
        ``REFERENCE_S``."""
        lo = bisect.bisect_left(self.when, wall0 - PAD_S)
        hi = bisect.bisect_right(self.when, wall1 + PAD_S)
        if lo == hi:  # no sample near: use the closest one
            lo = max(0, min(lo, len(self.when) - 1))
            hi = lo + 1
        return statistics.median(self.took[lo:hi]) / REFERENCE_S
