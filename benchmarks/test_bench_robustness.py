"""Bench: batched robustness evaluation and the robust-planning claim.

Two guards on the robustness stack:

* **Batched speedup** — a 256-draw robustness profile evaluated through
  the batched fast path (one ``(K, n)`` relaxation) must be at least 5x
  faster than the same 256 draws run as scalar ``PipelineSim`` loops,
  while agreeing bit for bit.
* **Acceptance** — under 10% multiplicative stage-cost noise on at least
  one paper model, the robust-P95 plan's *held-out* P95 iteration time
  strictly beats the nominal plan's.
* **Robust oracle** — the exact robust search (GPT-2 345M, 51 blocks,
  m = 16, 64 draws of 10% noise plus a 1.5x straggler) finishes depth 6
  (2.1M candidates) well inside a generous budget under every statistic,
  and returns the full enumeration's answer at depth 4.

Measured numbers are printed with each table.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import run_and_print
from repro.core.analytic_sim import PipelineSim
from repro.core.exhaustive import exhaustive_partition
from repro.core.partition import StageTimes, stage_times
from repro.core.planner import plan_partition
from repro.experiments import robustness
from repro.experiments.common import ExperimentResult, make_profile
from repro.models.zoo import GPT2_345M
from repro.robustness import (
    RobustObjective,
    Straggler,
    StageCostNoise,
    draw_factors,
    robust_iteration_times,
)

DRAWS = 256


def _scalar_reference(times, m, factors, comm_mode="paper"):
    """The pre-batching cost model: one Python PipelineSim per draw."""
    fwd, bwd, comm = factors.apply(times)
    return np.array([
        PipelineSim(
            StageTimes(
                fwd=tuple(fwd[k]), bwd=tuple(bwd[k]), comm=float(comm[k])
            ),
            m, comm_mode=comm_mode,
        ).run().iteration_time
        for k in range(factors.draws)
    ])


def run_batched_speedup(num_stages: int = 4, m: int = 8):
    profile = make_profile(GPT2_345M, 4, m)
    plan = plan_partition(profile, num_stages, m)
    times = stage_times(plan.partition, profile)
    factors = draw_factors((StageCostNoise(0.1),), num_stages, DRAWS, 0)

    t0 = time.perf_counter()
    scalar = _scalar_reference(times, m, factors)
    scalar_s = time.perf_counter() - t0

    batched_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        batched = robust_iteration_times(times, m, factors)
        batched_s = min(batched_s, time.perf_counter() - t0)

    assert np.array_equal(batched, scalar), "batched route drifted"
    result = ExperimentResult(
        name=f"Robustness profile: batched vs per-draw scalar "
             f"({DRAWS} draws, GPT-2 345M, {num_stages} stages)",
        headers=["draws", "scalar (ms)", "batched (ms)", "speedup"],
    )
    result.rows.append([
        DRAWS, f"{scalar_s * 1e3:.2f}", f"{batched_s * 1e3:.2f}",
        f"{scalar_s / max(batched_s, 1e-9):.1f}x",
    ])
    result.meta["scalar_s"] = scalar_s
    result.meta["batched_s"] = batched_s
    return result


def test_bench_batched_profile_speedup(benchmark):
    result = run_and_print(benchmark, run_batched_speedup)
    scalar_s = result.meta["scalar_s"]
    batched_s = result.meta["batched_s"]
    # Acceptance bar: the batched fast path buys at least 5x.
    assert scalar_s >= 5 * batched_s, (
        f"batched robustness evaluation only {scalar_s / batched_s:.1f}x "
        "faster than the per-draw scalar loop"
    )


def test_bench_robust_vs_nominal_acceptance(benchmark):
    result = run_and_print(benchmark, robustness.run)
    cells = result.meta["cells"]
    # Acceptance bar: under 10% stage-cost noise, on at least one paper
    # model, the robust plan's held-out P95 strictly beats the nominal
    # plan's.
    noise10 = [c for c in cells if c["scenario"] == "noise-10%"]
    assert noise10, "noise-10% scenario missing from the sweep"
    assert any(
        c["robust_p95_ms"] < c["nominal_p95_ms"] for c in noise10
    ), "robust plan never beat the nominal plan's P95 under 10% noise"
    # And choosing robustly is never a material held-out regression
    # (identical plans tie exactly; differing plans may wobble within
    # sampling noise on the held-out seed).
    for c in cells:
        assert c["robust_speedup"] > 0.99, c


#: Wall-clock budget of one depth-6 robust oracle search.  The search
#: takes 0.01-0.1 s on a 2-core x86-64 host (max fastest, mean
#: slowest); the slab-bounding search it replaced took 7.4 s (p95).
ROBUST_ORACLE_BUDGET_S = 2.0


def _robust_oracle_case(statistic, depth, prune=True):
    """``(seconds, result)`` of the guard's robust oracle search."""
    m = 16
    profile = make_profile(GPT2_345M, 4, m)
    objective = RobustObjective(
        (StageCostNoise(0.1), Straggler(1.5)), draws=64, seed=0,
        statistic=statistic,
    )
    t0 = time.perf_counter()
    result = exhaustive_partition(
        profile, depth, m, robust=objective, prune=prune,
        max_evaluations=None,
    )
    return time.perf_counter() - t0, result


def run_robust_oracle_depth6():
    result = ExperimentResult(
        name="Robust oracle: GPT-2 345M, depth 6, m = 16, 64 draws "
             "(noise 10% + straggler 1.5x)",
        headers=["statistic", "space", "scored", "time (s)"],
    )
    for statistic in ("mean", "p95", "max"):
        seconds, found = _robust_oracle_case(statistic, 6)
        result.rows.append(
            [statistic, found.space, found.evaluations, f"{seconds:.3f}"]
        )
        result.meta[statistic] = seconds
    return result


def test_bench_robust_oracle_depth6(benchmark):
    result = run_and_print(benchmark, run_robust_oracle_depth6)
    for statistic, seconds in result.meta.items():
        assert seconds <= ROBUST_ORACLE_BUDGET_S, (
            f"depth-6 robust oracle ({statistic}) took {seconds:.2f} s, "
            f"over its {ROBUST_ORACLE_BUDGET_S} s budget"
        )


def test_bench_robust_oracle_matches_enumeration(benchmark):
    def run():
        return [
            (_robust_oracle_case(statistic, 4)[1],
             _robust_oracle_case(statistic, 4, prune=False)[1])
            for statistic in ("mean", "p95", "max")
        ]

    for pruned, spec in benchmark.pedantic(run, rounds=1, iterations=1):
        assert pruned.partition.sizes == spec.partition.sizes
        assert pruned.robust_value.hex() == spec.robust_value.hex()
        assert pruned.iteration_time == spec.iteration_time
