"""Baseline-planner DP kernels: vectorized vs scalar, and the batched
slice-count autotune sweep vs per-candidate DES.

Writes the ``baseline_dp`` and ``autotune_batched`` sections of
``BENCH_search.json``.  Guards backing the PR's acceptance criteria:

* vectorized Piper and DAPPLE must return plans identical to the scalar
  loops at both scales (always asserted — bit-equal predicted time);
* at the 64-GPU synthetic scale the vectorized DPs must be >= 5x faster
  (the recorded numbers land well above 10x; the asserted bar leaves
  headroom for runner noise);
* the batched slice sweep must pick the identical autotune winner and
  run >= 3x faster than the one-DES-per-candidate reference.
"""

from __future__ import annotations

import time
from unittest import mock

from benchmarks.conftest import TINY12, run_and_print
from benchmarks.test_bench_ablation_search import merge_into_search_results
from repro.baselines import dapple, piper
from repro.config import TrainConfig
from repro.core.strategy import autotune_config
from repro.experiments.common import ExperimentResult
from repro.hardware.device import DEFAULT_CLUSTER_HW, rtx3090_cluster
from repro.models.zoo import GPT2_1_3B, GPT2_345M
from repro.profiling import profile_model

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
    merge_into_search_results("baseline_dp", {
        "setting": "scalar reference loops vs numpy DP kernels "
                   "(bit-identical plans asserted)",
        "scales": {
            "table3": "gpt2-345m, 4x4 cluster, mbs=4, gbs=512, G=16",
            "64-gpu": "gpt2-1.3b, 8x8 cluster, mbs=16, gbs=2048, G=64",
        },
        "rows": [
            {
                "planner": row[0], "scale": row[1], "num_gpus": row[2],
                "scalar_ms": float(row[3]), "vector_ms": float(row[4]),
                "speedup": float(row[5].rstrip("x")),
                "identical_plan": row[6] == "yes",
            }
            for row in result.rows
        ],
    })


def run_autotune_batched():
    train = TrainConfig(micro_batch_size=4, global_batch_size=4 * 32)
    profile = profile_model(TINY12, DEFAULT_CLUSTER_HW, train)
    per_s, per = _best_of(
        lambda: autotune_config(profile, 8, batched_slices=False), reps=3,
    )
    bat_s, bat = _best_of(
        lambda: autotune_config(profile, 8, batched_slices=True), reps=3,
    )
    result = ExperimentResult(
        name="Autotune slice sweep: per-candidate DES vs batched "
             "family relaxation (tiny12, 8 GPUs, m=32)",
        headers=["mode", "wall (ms)", "speedup", "best layout", "slices"],
    )
    result.rows.append([
        "per-candidate", f"{per_s * 1e3:.1f}", "1.0x",
        str(per.best.layout), per.best.slice_count,
    ])
    result.rows.append([
        "batched", f"{bat_s * 1e3:.1f}", f"{per_s / bat_s:.1f}x",
        str(bat.best.layout), bat.best.slice_count,
    ])
    result.meta["identical_best"] = (
        str(per.best.layout) == str(bat.best.layout)
        and per.best.slice_count == bat.best.slice_count
        and per.best.iteration_seconds == bat.best.iteration_seconds
    )
    result.meta["speedup"] = per_s / bat_s
    return result


def test_bench_autotune_batched(benchmark):
    result = run_and_print(benchmark, run_autotune_batched)
    assert result.meta["identical_best"], (
        "batched slice evaluation changed the autotune winner"
    )
    assert result.meta["speedup"] >= 3.0, (
        f"batched slice sweep managed only {result.meta['speedup']:.1f}x "
        "over per-candidate DES — below the 3x acceptance bar"
    )
    merge_into_search_results("autotune_batched", {
        "setting": "tiny12 (27 blocks), 8 GPUs, m=32, joint search; "
                   "slice sweep batched through family-cached graph "
                   "structures vs one DES run per candidate",
        "rows": [
            {
                "mode": row[0], "wall_ms": float(row[1]),
                "speedup": float(row[2].rstrip("x")),
                "best_layout": row[3], "best_slices": row[4],
            }
            for row in result.rows
        ],
        "identical_best": result.meta["identical_best"],
    })
