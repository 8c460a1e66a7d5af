"""Autotune bench: the cluster autotuner's joint search.

Measurements go to stdout.  Guard: the joint autotune search over tiny12
on 4 GPUs must finish within 30 s.
"""

from __future__ import annotations

import time

from benchmarks.conftest import TINY12, run_and_print
from repro.config import TrainConfig
from repro.core.strategy import autotune_config
from repro.experiments.common import ExperimentResult
from repro.hardware.device import DEFAULT_CLUSTER_HW
from repro.profiling import profile_model

#: micro-batches per iteration of the tiny12 profile.
_M = 24


def _tiny12_profile():
    train = TrainConfig(micro_batch_size=4, global_batch_size=4 * _M)
    return profile_model(TINY12, DEFAULT_CLUSTER_HW, train)


def run_autotune_bench():
    profile = _tiny12_profile()
    t0 = time.perf_counter()
    tuned = autotune_config(profile, 4)
    wall = time.perf_counter() - t0
    result = ExperimentResult(
        name="Autotune: joint (dp x pp x slices) search, tiny12, 4 GPUs",
        headers=["layout", "slices", "planner", "iter (ms)", "status"],
    )
    for c in tuned.candidates:
        result.rows.append([
            str(c.layout), c.slice_count, c.planner or "-",
            f"{c.iteration_seconds * 1e3:.2f}" if c.ok else "-",
            c.status,
        ])
    result.meta["wall_seconds"] = wall
    print(f"\nautotune: best {tuned.best.layout} "
          f"slices={tuned.best.slice_count} planner={tuned.best.planner} "
          f"({tuned.best.iteration_seconds * 1e3:.3f} ms/iter), "
          f"{tuned.layouts_searched} layouts in {wall:.3f} s")
    return result


def test_bench_autotune(benchmark):
    result = run_and_print(benchmark, run_autotune_bench)
    assert any(row[4] == "ok" for row in result.rows)
    # The joint search must not be slower than re-running every layout
    # would suggest: a few seconds on the 27-block model.
    assert result.meta["wall_seconds"] < 30.0
