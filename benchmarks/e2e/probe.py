"""Host-speed probe: a fixed piece of work timed all through a run.

The benchmark runs on a few cores of a shared host whose speed swings
by up to half within a fraction of a second, as other tenants come and
go, and every query slows with it; wall-clock timings of the same code
wander from run to run far more than any change worth gating on.  The
probe measures the swing.  It walks a small pipeline lattice in pure
Python, like the planner's simulator.  Numpy sweeps over large arrays
slow by less than interpreted code (by about 1.1-1.3 times where the
walk slows by 1.5-1.7), so for a workload whose time goes mostly into
such sweeps (``workloads.SWEEP_PROBED``) the probe also sweeps the same
recurrence over thousands of candidates, for about as long again.  The
probe is written here without importing ``repro``, so a change to the
library never changes it.

While a :class:`Probe` is running, an interval timer interrupts the
process every :data:`INTERVAL_S` of wall time and the signal handler
runs the probe once, inside or between queries alike, so a query of a
second is sampled as densely as the gaps between short ones.
:meth:`Probe.reference` turns a span of wall time into *reference time*:
the span minus the probes run inside it, times :data:`REFERENCE_S` over
the median duration of the probes nearest to it.  That is what the span
would have taken on a host where the probe takes :data:`REFERENCE_S`.
A probe run inside a query finds the caches as the query left them and
runs a few percent slower after array-heavy work than after
interpreted work; both commits of a comparison pay this alike.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import Callable, List, Optional

import numpy as np

#: Probe durations on an unloaded 2-vCPU x86-64 VM (Xeon, Python 3.11),
#: without and with the array sweeps: the host speed that reference
#: times are scaled to.
REFERENCE_S = {False: 0.28e-3, True: 0.55e-3}
#: Wall time between two probes.
INTERVAL_S = 0.02
#: Probes nearest to a span whose median estimates its host speed (all
#: the probes inside the span when there are more).
NEAREST = 8

_STAGES, _MICRO, _WALKS = 8, 16, 32
_COSTS = [1.0 + 0.125 * (s % 5) for s in range(_STAGES)]
_CANDIDATES, _SWEEPS = 4096, 5
_COST_COLUMNS = np.linspace(1.0, 1.5, _STAGES * _CANDIDATES).reshape(_STAGES, _CANDIDATES)


def work(sweep: bool) -> float:
    """The probe's fixed work: scalar forward walks of a pipeline
    lattice, ``finish[s] = max(finish[s - 1], finish[s]) + cost[s]`` per
    micro-batch, and with ``sweep`` the same recurrence swept over a few
    thousand candidates at once with numpy, which takes about as long
    again.  Returns the result so nothing is elided."""
    total = 0.0
    for _ in range(_WALKS):
        finish = [0.0] * _STAGES
        for _ in range(_MICRO):
            prev = 0.0
            for s in range(_STAGES):
                cur = finish[s]
                finish[s] = (prev if prev > cur else cur) + _COSTS[s]
                prev = finish[s]
        total += finish[-1]
    if sweep:
        columns = np.zeros((_STAGES, _CANDIDATES))
        for _ in range(_SWEEPS):
            prev = np.zeros(_CANDIDATES)
            for s in range(_STAGES):
                prev = np.maximum(prev, columns[s]) + _COST_COLUMNS[s]
                columns[s] = prev
        total += float(columns[-1].max())
    return total


class Probe:
    """Probe durations sampled through a run by ``SIGALRM``, and the
    scaling of wall-time spans by them.  Times are ``perf_counter_ns``
    values; the ``with`` block is the sampled interval.  ``sweep`` adds
    the array sweeps to the probe (see :func:`work`); ``on_sample``, if
    given, is called with each probe's duration."""

    def __init__(
        self, sweep: bool = False, on_sample: Optional[Callable[[int], None]] = None
    ) -> None:
        self.sweep = sweep
        self.on_sample = on_sample
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.durations: List[int] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        work(self.sweep)
        t1 = time.perf_counter_ns()
        self.starts.append(t0)
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        if self.on_sample is not None:
            self.on_sample(t1 - t0)

    def __enter__(self) -> "Probe":
        work(self.sweep)  # warm the interpreter's specialised bytecode
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference(self, start: int, end: int) -> float:
        """Reference time, in seconds, of the wall-time span ``[start, end)``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.durations[lo:hi]
        near = list(inside)
        before, after = lo - 1, hi
        while len(near) < NEAREST and (before >= 0 or after < len(self.starts)):
            gap_before = start - self.ends[before] if before >= 0 else None
            gap_after = self.starts[after] - end if after < len(self.starts) else None
            if gap_after is None or (gap_before is not None and gap_before <= gap_after):
                near.append(self.durations[before])
                before -= 1
            else:
                near.append(self.durations[after])
                after += 1
        wall = (end - start - sum(inside)) / 1e9
        if not near:
            return wall
        return wall * REFERENCE_S[self.sweep] / (statistics.median(near) / 1e9)

    def probe_time(self, start: int, end: int) -> float:
        """Seconds spent in probes inside ``[start, end)``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.durations[lo:hi]) / 1e9

    def summary(self) -> dict:
        """Probe count and duration quartiles, for the result file."""
        if len(self.durations) < 2:
            return {"probes": len(self.durations)}
        q1, q2, q3 = statistics.quantiles(self.durations, n=4)
        return {"probes": len(self.durations), "q1_s": q1 / 1e9,
                "median_s": q2 / 1e9, "q3_s": q3 / 1e9}
