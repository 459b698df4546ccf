"""Host-speed probe: a fixed pure-Python kernel timed while a workload runs.

The benchmark runs on a shared host whose speed wanders by tens of
percent over seconds and by up to 2x for minutes at a time.  A fixed
kernel, timed at short regular host-time intervals between slices of the
workload, measures that speed over the same window as the workload, and
every timing the benchmark gates on is rescaled to a reference speed:

    reference seconds = host seconds * REFERENCE_PROBE_S / mean probe time

The mean is weighted by the host time each probe stands for (the gap
since the previous probe).  The kernel is frozen benchmark code: it calls
nothing in ``repro``, allocates no garbage-collected objects and fits the
first-level caches, so the host's speed moves it and the program under
test hardly can (see :func:`kernel`).  Time spent probing is kept out of
every timed region.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

#: Iterations of the probe kernel; about 0.2 ms on the reference host.
PROBE_N = 2000
#: What one probe took on the reference host (2 CPUs, Python 3.11.7).
#: Only its constancy matters: it fixes the unit of every rescaled time.
REFERENCE_PROBE_S = 2.0e-4
#: Host seconds of workload between two probes.
INTERVAL_S = 0.01


def kernel(n: int = PROBE_N) -> int:
    """Integer arithmetic in one small loop: it fits the first-level caches
    again within a few iterations, so what ran before it (the workload)
    barely moves it, and it creates no object the garbage collector
    tracks.  A probe with a larger working set (dict and attribute
    lookups over half a megabyte) ran twice as slow right after a
    workload slice as back to back, so the program's own cache footprint
    would have moved it."""
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def probe() -> float:
    """Host seconds one run of the kernel takes now."""
    clock = time.perf_counter
    begun = clock()
    kernel()
    return clock() - begun


def burst(count: int) -> float:
    """Median of ``count`` back-to-back probes."""
    return statistics.median(probe() for _ in range(count))


class HostSpeed:
    """Probes the host between slices of a timed region.

    Call :meth:`start` when the region begins, :meth:`tick` at every
    point the workload can be interrupted (a probe runs when at least
    :data:`INTERVAL_S` has passed since the last one), and :meth:`stop`
    when it ends; then :meth:`scale` converts the region's host seconds to
    reference seconds and :attr:`spent` is the probing time to take out of
    the region.
    """

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.start()

    def start(self) -> None:
        self.weighted = 0.0
        self.span = 0.0
        self.spent = 0.0
        #: host clock at each probe's end, and that probe's seconds
        self.ends: List[float] = []
        self.took: List[float] = []
        self._last = self.clock()

    def tick(self, force: bool = False) -> None:
        gap = self.clock() - self._last
        if gap < INTERVAL_S and not force:
            return
        took = probe()
        self.weighted += gap * took
        self.span += gap
        self.spent += took
        self._last = self.clock()
        self.ends.append(self._last)
        self.took.append(took)

    def stop(self) -> None:
        self.tick(force=True)

    def scale(self) -> float:
        """Reference seconds per host second over the probed window."""
        return REFERENCE_PROBE_S * self.span / self.weighted

    def scale_between(self, begun: float, done: float) -> float:
        """Reference seconds per host second from the probes that ended
        within the host-clock interval ``begun``..``done`` (the next probe
        if none did)."""
        low = bisect.bisect_left(self.ends, begun)
        high = bisect.bisect_right(self.ends, done)
        if high <= low:
            low = min(low, len(self.ends) - 1)
            high = low + 1
        return REFERENCE_PROBE_S * (high - low) / sum(self.took[low:high])
