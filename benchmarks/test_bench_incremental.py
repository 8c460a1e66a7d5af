"""Incremental-oracle bench: prefix-state reuse vs the per-node search.

Writes the ``incremental`` section of ``BENCH_search.json``: per depth,
the enumeration space, how many full simulations the search avoided, the
wall clock of the per-node pruned path vs the incremental path (bound
tables + dominance memo + prefix-checkpointed suffix batches), and the
speedup.  Two guards back the PR's acceptance criteria:

* depth 8 must show a >= 3x wall-clock reduction with the identical
  argmin, and
* depth 10 — beyond the old oracle's comfort zone — must complete an
  *exact* search (argmin equal to the trusted per-node pruned path).

A ``prune_slack`` sweep rides along.  (The planner's ``incremental=``
mode measured parity-to-slower here and was removed; its last recorded
row stays in ``BENCH_search.json`` as ``planner_incremental``.)
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_and_print
from benchmarks.test_bench_ablation_search import merge_into_search_results
from repro.config import ModelConfig, TrainConfig
from repro.core.exhaustive import exhaustive_partition
from repro.experiments.common import ExperimentResult
from repro.hardware.device import DEFAULT_CLUSTER_HW
from repro.profiling import profile_model

#: 12 layers -> 27 blocks: deep enough that depth-8/10 searches have
#: hundreds of thousands to millions of candidates, small enough to run
#: in CI seconds.
TINY12 = ModelConfig(
    name="tiny12", num_layers=12, hidden_size=256, num_heads=4,
    seq_length=128, vocab_size=8000,
)


def _best_of(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_incremental_oracle():
    result = ExperimentResult(
        name="Incremental oracle: prefix-state reuse vs per-node search",
        headers=["depth", "m", "space", "evals", "avoided", "per-node (ms)",
                 "incremental (ms)", "speedup"],
    )
    rows_json = []
    cases = [
        # (depth, m, global batch, reps) — depth 8 is the guard row;
        # depth 10 extends the exact oracle past the old budget.
        (8, 32, 128, 3),
        (10, 20, 80, 2),
    ]
    for depth, m, gbs, reps in cases:
        profile = profile_model(
            TINY12, DEFAULT_CLUSTER_HW,
            TrainConfig(micro_batch_size=4, global_batch_size=gbs),
        )
        # scorer pinned to the lattice path: this bench isolates the
        # incremental layer; the analytic-kernel column lives in
        # benchmarks/test_bench_analytic.py.
        old = exhaustive_partition(
            profile, depth, m, incremental=False, scorer="lattice",
            max_evaluations=None,
        )
        new = exhaustive_partition(
            profile, depth, m, incremental=True, scorer="lattice",
            max_evaluations=None,
        )
        assert new.iteration_time == old.iteration_time
        assert new.partition.stages == old.partition.stages
        t_old = _best_of(
            lambda: exhaustive_partition(
                profile, depth, m, incremental=False, scorer="lattice",
                max_evaluations=None,
            ),
            reps,
        )
        t_new = _best_of(
            lambda: exhaustive_partition(
                profile, depth, m, incremental=True, scorer="lattice",
                max_evaluations=None,
            ),
            reps,
        )
        speedup = t_old / t_new
        avoided = new.space - new.evaluations
        result.rows.append([
            depth, m, new.space, new.evaluations, avoided,
            f"{t_old * 1e3:.1f}", f"{t_new * 1e3:.1f}", f"{speedup:.2f}x",
        ])
        rows_json.append({
            "depth": depth,
            "micro_batches": m,
            "space": new.space,
            "evaluations": new.evaluations,
            "full_sims_avoided": avoided,
            "suffix_sims": new.suffix_sims,
            "dominance_pruned": new.dominance_pruned,
            "per_node_seconds": t_old,
            "incremental_seconds": t_new,
            "speedup": speedup,
            "exact": True,
        })
    merge_into_search_results("incremental", {"oracle": rows_json})
    return result


def test_bench_incremental_oracle(benchmark):
    result = run_and_print(benchmark, run_incremental_oracle)
    by_depth = {row[0]: row for row in result.rows}
    # Guard: >= 3x wall-clock reduction at depth 8, exact at depth >= 10
    # (argmin equality is asserted inside the run for every row).
    assert float(by_depth[8][-1].rstrip("x")) >= 3.0
    assert 10 in by_depth


def run_prune_slack_sweep(depth: int = 8, m: int = 20):
    profile = profile_model(
        TINY12, DEFAULT_CLUSTER_HW,
        TrainConfig(micro_batch_size=4, global_batch_size=4 * m),
    )
    exact = exhaustive_partition(profile, depth, m, max_evaluations=None)
    result = ExperimentResult(
        name=f"Prune-slack sweep (depth {depth}, m={m})",
        headers=["slack", "evals", "time vs exact"],
    )
    rows_json = []
    for slack in (1.0, 1.000000001, 1.01, 1.1):
        res = exhaustive_partition(
            profile, depth, m, prune_slack=slack, max_evaluations=None
        )
        ratio = res.iteration_time / exact.iteration_time
        assert res.evaluations <= exact.space
        assert ratio <= slack + 1e-12
        result.rows.append([slack, res.evaluations, f"{ratio:.6f}"])
        rows_json.append({
            "slack": slack,
            "evaluations": res.evaluations,
            "time_ratio_vs_exact": ratio,
        })
    merge_into_search_results("prune_slack", {"rows": rows_json})
    return result


def test_bench_prune_slack(benchmark):
    result = run_and_print(benchmark, run_prune_slack_sweep)
    # slack 1.0 stays exact
    assert float(result.rows[0][2]) == 1.0
