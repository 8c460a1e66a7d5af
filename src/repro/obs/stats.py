"""Shared derived-stat formulas: one definition, every surface.

``ExhaustiveResult.sims_per_second``, ``PlannerResult.sims_per_second``,
the planner's simulation-memo hit rate and the ``repro telemetry
report`` table all derive rates and hit rates through these two
functions, so a result object and the telemetry report of the same
run can never disagree on the arithmetic — they differ only in which
counters they feed in, and the search layers fold their counters from
the result fields themselves.
"""

from __future__ import annotations


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
