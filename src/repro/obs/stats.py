"""Shared derived-stat formulas: one definition, every surface.

``ExhaustiveResult.sims_per_second``, ``PlannerResult.sims_per_second``,
the planner's simulation-memo hit rate and the ``repro telemetry
report`` table all derive rates and hit rates through these two
functions, so a result object and the telemetry report of the same
run can never disagree on the arithmetic — they differ only in which
counters they feed in, and the search layers fold their counters from
the result fields themselves.  :func:`p95` is the one 95th percentile
of the robust objectives, the robustness profiles and the runtime
metrics.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np


def rate(count: float, seconds: float) -> float:
    """Events per second; 0 for an instantaneous or empty interval."""
    if seconds <= 0:
        return 0.0
    return count / seconds


def hit_rate(hits: float, misses: float) -> float:
    """Fraction of lookups served from cache; 0 when nothing was looked up."""
    total = hits + misses
    if total <= 0:
        return 0.0
    return hits / total


def p95(values, axis: Optional[int] = None):
    """``np.quantile(values, 0.95, axis=axis)``, bit for bit.

    numpy's linear method: the two order statistics around the virtual
    index ``h = 0.95 (K - 1)``, found by one ``np.partition``, and its
    interpolation ``a + (b - a) g`` (``b - (b - a)(1 - g)`` once ``g >=
    0.5``); a slice holding a NaN gives NaN.  ``np.quantile`` imports
    ``numpy.ma`` on first use, tens of ms inside whichever query calls
    it first; this does not.  ``axis`` is ``None`` (flattened) or one
    axis.
    """
    arr = np.asarray(values, dtype=np.float64)
    if axis is None:
        arr = arr.reshape(-1)
        axis = -1
    last = arr.shape[axis] - 1
    if last < 0:
        raise ValueError("p95 of an empty sample")
    h = last * 0.95
    if h >= last:  # K = 1: numpy reads index -1 for both neighbours
        lo = hi = -1
        gamma = h + 1
    else:
        lo = math.floor(h)
        hi = lo + 1
        gamma = h - lo
    # numpy's own pivots, in its order: which of two equal values (0.0
    # and -0.0) lands at ``lo`` depends on them.
    part = np.partition(arr, sorted({0, -1, lo, hi}), axis=axis)
    a = part.take(lo, axis=axis)
    b = part.take(hi, axis=axis)
    diff = b - a
    if gamma >= 0.5:
        out = b - diff * (1 - gamma)
    else:
        out = a + diff * gamma
    top = part.take(-1, axis=axis)
    return np.where(np.isnan(top), top, out)[()]
