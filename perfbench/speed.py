"""Follow the machine's speed while a workload runs, and scale timings to it.

The benchmark runs on a few vCPUs of a shared host.  The CPU time of the
same operation on the same input moves by a third from one minute to the
next there, because other tenants compete for the physical cores, caches and
memory; a plain timing then measures the neighbours as much as the program.
So, while a workload runs, a timer signal interrupts it every `INTERVAL`
seconds to time `probe()`, a fixed piece of pure-Python work of the same kind
as the package's (rational arithmetic, hashing, sorting).  The CPU time of an
operation is then scaled by `REFERENCE_S / m`, where `m` is the median probe
time around the operation: the result is what the operation would have cost
on the machine at its reference speed.  The probe's own CPU time inside an
operation is taken out of the operation's.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.025  # seconds of wall time between two probes
NEAREST = 15  # probes an operation's speed is taken from, at least
# the probe's median CPU time on the reference machine (see README), so that
# scaled timings read close to plain CPU times there
REFERENCE_S = 0.0007


def probe() -> int:
    """A fixed piece of work, about 0.7 ms on the reference machine."""
    acc, seen = Fraction(0), {}
    for i in range(1, 120):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        seen[(i, i % 13)] = acc.numerator % 97
    return len(sorted(seen.items(), key=lambda kv: (kv[1], kv[0])))


def probe_median(count: int) -> float:
    """Median CPU time of `count` probes run back to back."""
    times = []
    for _ in range(count):
        c0 = time.process_time()
        probe()
        times.append(time.process_time() - c0)
    return statistics.median(times)


class SpeedProbe:
    """Times `probe()` from a SIGALRM handler every `INTERVAL` seconds.

    The handler runs in the main thread between bytecodes, so it samples the
    core and the caches the operation itself runs on.  `spent` is the CPU
    time the probes have taken so far, to be taken out of an operation's.
    """

    def __init__(self) -> None:
        self.at: list[float] = []  # perf_counter when each probe ran
        self.took: list[float] = []  # its CPU seconds
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        # no collection inside the probe: it would be timed as the probe's,
        # and the objects the probe frees leave the collector's counts as
        # they were, so the operation's own collections come where they would
        collecting = gc.isenabled()
        gc.disable()
        c0 = time.process_time()
        probe()
        took = time.process_time() - c0
        if collecting:
            gc.enable()
        self.at.append(time.perf_counter())
        self.took.append(took)
        self.spent += time.process_time() - c0

    def start(self) -> None:
        self._tick(signal.SIGALRM, None)  # so that there is always a sample
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def around(self, start: float, end: float) -> float:
        """Median probe time over [start, end], widened to the `NEAREST`
        probes closest to it when fewer ran inside."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.at)):
            before = start - self.at[lo - 1] if lo > 0 else float("inf")
            after = self.at[hi] - end if hi < len(self.at) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.took[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """The factor that takes a timing over [start, end] to reference speed."""
        return REFERENCE_S / self.around(start, end)
