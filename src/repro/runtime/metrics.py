"""Shared metric helpers for the evaluation experiments."""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from repro.obs import stats as _stats


def speedup(baseline_seconds: float, candidate_seconds: float) -> float:
    """How much faster the candidate is (>1 means faster).

    Sweeps feed this whatever the simulator produced, including the
    failure sentinels of deadlocked or infeasible cells (``inf``/NaN
    times) and degenerate zero/negative measurements — raising here used
    to abort a whole sweep on one bad cell, so degenerate inputs now
    degrade gracefully instead:

    * NaN in either time propagates (with a ``RuntimeWarning``);
    * a candidate that never finishes (``inf``) has speedup 0.0 — it is
      infinitely slower, no warning needed;
    * an ``inf`` baseline against a finite candidate is an infinite
      speedup (the candidate fixed a deadlock);
    * a non-positive time on either side is a measurement bug, not a
      simulation outcome: warn and return 0.0 so the table shows a
      clearly-wrong cell instead of killing the run.
    """
    b = float(baseline_seconds)
    c = float(candidate_seconds)
    if math.isnan(b) or math.isnan(c):
        warnings.warn(
            "speedup of a NaN time is NaN", RuntimeWarning, stacklevel=2
        )
        return float("nan")
    if math.isinf(b) and math.isinf(c):
        warnings.warn(
            "speedup of two non-finishing (inf) times is NaN",
            RuntimeWarning, stacklevel=2,
        )
        return float("nan")
    if c <= 0:
        warnings.warn(
            f"non-positive candidate time {c!r}; reporting speedup 0.0",
            RuntimeWarning, stacklevel=2,
        )
        return 0.0
    if math.isinf(c):
        # Deadlocked/never-finishing candidate: infinitely slower.
        return 0.0
    if b <= 0:
        warnings.warn(
            f"non-positive baseline time {b!r}; reporting speedup 0.0",
            RuntimeWarning, stacklevel=2,
        )
        return 0.0
    return b / c


def p95(samples: Sequence[float]) -> float:
    """The 95th percentile of a sample of times (linear interpolation)."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no samples")
    return float(_stats.p95(arr))


def p95_regret(
    candidate_samples: Sequence[float],
    reference_samples: Sequence[float],
) -> float:
    """Relative excess of the candidate's P95 over the reference's.

    ``(P95(candidate) - P95(reference)) / P95(reference)`` — e.g. the
    *nominal* plan's regret relative to the *robust* plan under the same
    perturbation draws; positive means the candidate's tail is worse.
    """
    ref = p95(reference_samples)
    cand = p95(candidate_samples)
    if not ref > 0 or not math.isfinite(ref):
        raise ValueError(f"reference P95 must be finite and positive, got {ref!r}")
    return (cand - ref) / ref


def robust_speedup(
    baseline_samples: Sequence[float],
    candidate_samples: Sequence[float],
    statistic: str = "p95",
) -> float:
    """Speedup of a robust statistic over perturbation draws (>1: faster).

    Reduces both sample sets with ``statistic`` (``"mean"``, ``"p95"``
    or ``"max"``) and applies :func:`speedup` — degenerate reductions
    degrade the same way scalar speedups do.
    """
    from repro.robustness.evaluate import reduce_statistic

    return speedup(
        float(reduce_statistic(baseline_samples, statistic)),
        float(reduce_statistic(candidate_samples, statistic)),
    )


def balance_std(stage_seconds: Sequence[float]) -> float:
    """Std-dev of per-stage busy time — the paper's balance metric (Fig 13)."""
    if not stage_seconds:
        raise ValueError("no stages")
    return float(np.std(np.asarray(stage_seconds, dtype=float)))


def balance_improvement(
    baseline_stage_seconds: Sequence[float],
    candidate_stage_seconds: Sequence[float],
) -> float:
    """Ratio of balance std-devs (>1: candidate is more balanced).

    When *both* schemes are perfectly balanced the improvement is neutral
    (1.0), not infinite — ``inf`` is reserved for a candidate that reaches
    perfect balance from an imbalanced baseline.
    """
    denom = balance_std(candidate_stage_seconds)
    if denom == 0:
        numer = balance_std(baseline_stage_seconds)
        return 1.0 if numer == 0 else float("inf")
    return balance_std(baseline_stage_seconds) / denom
