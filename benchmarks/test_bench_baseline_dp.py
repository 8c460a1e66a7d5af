"""Baseline-planner DP kernels: vectorized vs scalar, and the cold
batched slice-count sweep vs the Op route per count.

Prints both tables; guards:

* vectorized Piper and DAPPLE must return plans identical to the scalar
  loops at both scales (always asserted — bit-equal predicted time);
* at the 64-GPU synthetic scale the vectorized DPs must be >= 5x faster
  (measured speedups land well above 10x; the asserted bar leaves
  headroom for runner noise);
* with no shape template cached, ``evaluate_slice_counts`` must return
  the results of the Op route per slice count — ``build_1f1b`` /
  ``build_sliced``, then ``lower_programs`` + ``_walk_programs`` +
  ``CompiledGraph.from_walk``, the compile a template miss ran before it
  walked shape keys directly — and run the sweep >= 3x faster
  (assert-only).
"""

from __future__ import annotations

import time
from unittest import mock

from benchmarks.conftest import TINY12, run_and_print
from repro.baselines import dapple, piper
from repro.config import TrainConfig
from repro.core.balance_dp import balanced_partition
from repro.core.slicer import SlicePlan
from repro.experiments.common import ExperimentResult, make_profile
from repro.hardware.cluster import Cluster
from repro.hardware.device import DEFAULT_CLUSTER_HW, rtx3090_cluster
from repro.models.zoo import GPT2_1_3B, GPT2_345M
from repro.profiling import profile_model
from repro.schedules.one_f_one_b import build_1f1b
from repro.schedules.sliced import build_sliced
from repro.sim.engine import lower_programs
from repro.sim.graph_exec import (
    CompiledGraph,
    GraphStructure,
    _walk_programs,
    clear_templates,
)
from repro.sim.slice_eval import evaluate_slice_counts

#: Table III scale: the paper's full 4x4 testbed (16 GPUs) on the
#: GPT-2 345M sweep cell.
_TABLE3 = ("table3", GPT2_345M, DEFAULT_CLUSTER_HW, 4, 512, 16)
#: 64-GPU synthetic scale: the ROADMAP's scale-out target, on a cluster
#: large enough that the 64-way plans exist.
_SCALE64 = ("64-gpu", GPT2_1_3B, rtx3090_cluster(8, 8), 16, 2048, 64)

_PLANNERS = {"piper": (piper, piper.plan_piper),
             "dapple": (dapple, dapple.plan_dapple)}


def _plan_outcome(cfg):
    return (cfg.partition, cfg.replicas, cfg.predicted, cfg.notes)


def _scalar_plan(module, planner, *args):
    """The planner run on its scalar reference fill (``_fill_scalar``
    swapped in for ``_fill_vector``)."""
    with mock.patch.object(module, "_fill_vector", module._fill_scalar):
        return planner(*args)


def _best_of(fn, reps):
    best, out = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def run_baseline_dp():
    result = ExperimentResult(
        name="Baseline planner DPs: scalar loops vs vectorized kernels",
        headers=["planner", "scale", "G", "scalar (ms)", "vector (ms)",
                 "speedup", "identical"],
    )
    for scale, model, hw, mbs, gbs, G in (_TABLE3, _SCALE64):
        train = TrainConfig(micro_batch_size=mbs, global_batch_size=gbs)
        profile = profile_model(model, hw, train)
        for name, (module, planner) in _PLANNERS.items():
            # The scalar reference at 64 GPUs runs seconds per call: one
            # measured rep there, two at table scale; the vectorized
            # path is cheap enough for best-of-3.
            s_s, s_cfg = _best_of(
                lambda: _scalar_plan(module, planner, profile, G, gbs),
                reps=1 if scale == "64-gpu" else 2,
            )
            v_s, v_cfg = _best_of(
                lambda: planner(profile, G, gbs), reps=3,
            )
            identical = _plan_outcome(s_cfg) == _plan_outcome(v_cfg)
            result.rows.append([
                name, scale, G, f"{s_s * 1e3:.1f}", f"{v_s * 1e3:.1f}",
                f"{s_s / v_s:.1f}x", "yes" if identical else "NO",
            ])
    return result


def test_bench_baseline_dp(benchmark):
    result = run_and_print(benchmark, run_baseline_dp)
    assert all(row[6] == "yes" for row in result.rows), (
        "vectorized baseline DP diverged from the scalar reference"
    )
    for row in result.rows:
        if row[1] == "64-gpu":
            speedup = float(row[5].rstrip("x"))
            assert speedup >= 5.0, (
                f"{row[0]} vectorized DP managed only {speedup:.1f}x at "
                "the 64-GPU scale — below the 5x acceptance bar"
            )


#: (depth, m) shapes of the cold slice-count sweep; every count
#: 0..depth-1 is evaluated.
_SLICE_SHAPES = ((4, 16), (8, 32), (16, 64))


def _best_of_cold(fn, reps):
    """``_best_of`` with the shape-template cache emptied before each rep."""
    def cold():
        clear_templates()
        return fn()
    return _best_of(cold, reps)


def run_cold_slice_sweep():
    result = ExperimentResult(
        name="Cold slice-count sweep (gpt2-345m, no cached templates): "
             "build + lower + walk per count vs evaluate_slice_counts",
        headers=["depth", "m", "op route (ms)", "batched (ms)", "speedup",
                 "identical"],
    )
    per_total = bat_total = 0.0
    for depth, m in _SLICE_SHAPES:
        profile = make_profile(GPT2_345M, 4, m)
        partition = balanced_partition(profile.block_times(), depth)
        cluster = Cluster(profile.hardware)
        devices = cluster.pipeline_devices(depth)
        counts = list(range(depth))

        def op_graph(schedule):
            walk = _walk_programs(lower_programs(schedule, cluster, devices))
            return CompiledGraph.from_walk(
                GraphStructure(walk), walk, schedule.name,
                schedule.static_bytes, cluster.hw.gpu_memory,
            )

        def per_count():
            return [
                op_graph(
                    build_1f1b(profile, partition, m) if count == 0
                    else build_sliced(profile, partition, SlicePlan(count, m))
                ).run()
                for count in counts
            ]

        per_s, per = _best_of_cold(per_count, reps=3)
        bat_s, bat = _best_of_cold(
            lambda: evaluate_slice_counts(
                profile, partition, m, counts, cluster=cluster,
            ),
            reps=3,
        )
        identical = all(
            a.iteration_time == b.iteration_time
            and a.peak_memory == b.peak_memory
            and a.oom_devices == b.oom_devices
            for a, b in zip(per, bat)
        ) and len(per) == len(bat)
        per_total += per_s
        bat_total += bat_s
        result.rows.append([
            depth, m, f"{per_s * 1e3:.1f}", f"{bat_s * 1e3:.1f}",
            f"{per_s / bat_s:.1f}x", "yes" if identical else "NO",
        ])
    result.meta["speedup"] = per_total / bat_total
    return result


def test_bench_cold_slice_sweep(benchmark):
    result = run_and_print(benchmark, run_cold_slice_sweep)
    assert all(row[5] == "yes" for row in result.rows), (
        "evaluate_slice_counts diverged from the per-count Op route"
    )
    assert result.meta["speedup"] >= 3.0, (
        f"cold batched slice sweep managed only "
        f"{result.meta['speedup']:.1f}x over build + lower + walk per "
        "count — below the 3x acceptance bar"
    )
