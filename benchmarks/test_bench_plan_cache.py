"""Plan-cache bench: the persistent plan cache's warm-hit latency, and
the cluster autotuner.

Measurements go to stdout.  Guards:

* a warm plan-cache hit must replay the stored result in < 10 ms
  without running a single simulation;
* the joint autotune search over tiny12 on 4 GPUs must finish within
  30 s.
"""

from __future__ import annotations

import time

from benchmarks.conftest import TINY12, run_and_print
from repro.config import TrainConfig
from repro.core.exhaustive import exhaustive_partition
from repro.core.plan_cache import PlanCache
from repro.core.strategy import autotune_config
from repro.experiments.common import ExperimentResult
from repro.hardware.device import DEFAULT_CLUSTER_HW
from repro.profiling import profile_model

#: depth 12: the cold search takes ~0.4 s (7.7M candidates), so the warm
#: hit's latency is measured against a search worth caching.
_DEPTH, _M = 12, 24
_KWARGS = dict(comm_mode="paper", max_evaluations=None)


def _tiny12_profile():
    train = TrainConfig(micro_batch_size=4, global_batch_size=4 * _M)
    return profile_model(TINY12, DEFAULT_CLUSTER_HW, train)


def test_bench_plan_cache_warm_hit(tmp_path):
    cache = PlanCache(tmp_path)
    profile = _tiny12_profile()
    cold = exhaustive_partition(profile, _DEPTH, _M, cache=cache,
                                **_KWARGS)
    warm_s = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        warm = exhaustive_partition(profile, _DEPTH, _M, cache=cache,
                                    **_KWARGS)
        warm_s = min(warm_s, time.perf_counter() - t0)
    assert warm == cold
    assert cache.hits >= 5
    assert warm_s < 0.010, (
        f"warm plan-cache hit took {warm_s * 1e3:.2f} ms — above the "
        "10 ms acceptance bar"
    )
    print(f"\nplan cache warm hit: {warm_s * 1e3:.2f} ms "
          f"(cold search: {cold.search_seconds * 1e3:.1f} ms)")


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
