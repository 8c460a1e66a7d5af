"""Bench: simulator hot-path scaling (DES engine + planner search).

Unlike the other bench modules this one does not regenerate a paper
artifact — it guards the two hot paths the evaluation sweeps lean on:

* the event-driven DES engine, timed on the Fig. 10 1F1B setting
  (GPT-2 345M, m = 2·depth) across pipeline depths, and
* the AutoPipe planner search (``plan_partition``) plus the shared
  :class:`SimCache` that deduplicates analytic simulations across calls.

The measured numbers go to stdout only (run with ``-s``); the e2e
harness in ``benchmarks/e2e`` is the benchmark of record.  The DES
guard is a *generous absolute budget* on the deepest case: the seed's
polling-sweep engine needed ~7.5 ms for the 12-stage Fig. 10 pipeline
and the ready-queue engine ~0.75 ms, so a 50 ms ceiling only trips on a
genuine algorithmic regression (e.g. the quadratic sweep coming back),
never on machine noise.
"""

from __future__ import annotations

import time

from repro.baselines.megatron import uniform_partition
from repro.core.planner import SimCache, plan_partition
from repro.core.slicer import SlicePlan
from repro.experiments.common import make_profile
from repro.experiments.deep_pipeline import DEEP_GPT, DEEP_HW
from repro.hardware.cluster import Cluster
from repro.models.zoo import BERT_LARGE, GPT2_345M
from repro.runtime.trainer import build_schedule
from repro.schedules.interleaved import build_interleaved
from repro.sim.engine import Engine, lower_programs
from repro.sim.graph_exec import (
    GraphStructure,
    _walk_programs,
    clear_templates,
    compile_graph,
    run_batch,
)

DEPTHS = (2, 4, 8, 12)
#: depths for the compiled-vs-event comparison (128-layer deep model).
COMPILED_DEPTHS = (8, 16, 32, 64)
#: Wall-clock ceiling for one 12-stage Fig. 10 DES run.  Seed: ~7.5 ms,
#: event-driven engine: ~0.75 ms.  Generous so only regressions trip it.
DES_BUDGET_12_STAGE_SECONDS = 0.050

def _time_des(depth: int, reps: int = 5) -> float:
    """Best-of-``reps`` wall clock for one Fig. 10 DES execution."""
    m = 2 * depth
    profile = make_profile(GPT2_345M, 4, m)
    partition = uniform_partition(profile, depth)
    sched = build_schedule(profile, partition, m)
    cluster = Cluster(profile.hardware)
    devices = cluster.pipeline_devices(depth)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        Engine(sched, cluster, device_map=devices).run()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_des_scaling(benchmark):
    """DES wall clock vs pipeline depth, plus the absolute perf guard."""
    curve = {depth: _time_des(depth) for depth in DEPTHS}
    # The headline 12-stage number also goes on the benchmark clock.
    deepest = benchmark.pedantic(
        _time_des, args=(DEPTHS[-1],), rounds=1, iterations=1
    )
    curve[DEPTHS[-1]] = min(curve[DEPTHS[-1]], deepest)

    print()
    for depth, seconds in curve.items():
        print(f"DES depth {depth:2d}: {seconds * 1e3:8.3f} ms")

    assert curve[12] < DES_BUDGET_12_STAGE_SECONDS, (
        f"12-stage DES run took {curve[12] * 1e3:.2f} ms — over the "
        f"{DES_BUDGET_12_STAGE_SECONDS * 1e3:.0f} ms regression budget"
    )
    # Deeper pipelines must not blow up super-linearly (the old sweep was
    # quadratic in executed ops); 6x the depth may cost at most ~60x.
    assert curve[12] < 60 * max(curve[2], 1e-4)


def _deep_setting(depth: int, micro_batch_size: int = 4):
    """A Fig. 10-style 1F1B setting on the 128-layer deep-pipeline model."""
    m = 2 * depth
    profile = make_profile(DEEP_GPT, micro_batch_size, m, hardware=DEEP_HW)
    partition = uniform_partition(profile, depth)
    sched = build_schedule(profile, partition, m)
    cluster = Cluster(profile.hardware)
    devices = cluster.pipeline_devices(depth)
    return sched, cluster, devices


def test_bench_compiled_vs_event(benchmark):
    """Compiled static-graph executor vs the event loop, depths 8–64.

    Both executors run warm (programs lowered / graph compiled once) —
    the regime of planner sweeps re-executing cached structures.  The
    acceptance bar from the issue: >= 5x at depth >= 32, single run.
    """
    rows = {}
    for depth in COMPILED_DEPTHS:
        sched, cluster, devices = _deep_setting(depth)
        graph = compile_graph(sched, cluster, device_map=devices)
        expected = graph.run().iteration_time

        event_best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            result = Engine(sched, cluster, device_map=devices).run()
            event_best = min(event_best, time.perf_counter() - t0)
        assert result.iteration_time == expected

        compiled_best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            graph.run()
            compiled_best = min(compiled_best, time.perf_counter() - t0)

        rows[depth] = {
            "event_seconds": event_best,
            "compiled_seconds": compiled_best,
            "speedup": event_best / compiled_best,
            "nodes": graph.structure.num_nodes,
        }

    # Batched-K throughput: K same-shape schedules (different micro-batch
    # sizes -> different cost vectors) over one structure in one pass.
    batch_depth = 32
    graphs = []
    for mbs in range(1, 9):
        sched, cluster, devices = _deep_setting(batch_depth, mbs)
        graphs.append(compile_graph(sched, cluster, device_map=devices))
    assert all(g.structure is graphs[0].structure for g in graphs)
    run_batch(graphs)  # warm
    batched = singles = None
    batch_seconds = scalar_seconds = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        batched = run_batch(graphs)
        batch_seconds = min(batch_seconds, time.perf_counter() - t0)
        t0 = time.perf_counter()
        singles = [g.run() for g in graphs]
        scalar_seconds = min(scalar_seconds, time.perf_counter() - t0)
    assert [r.iteration_time for r in batched] == [
        s.iteration_time for s in singles
    ]

    benchmark.pedantic(graphs[0].run, rounds=3, iterations=1)

    print()
    for depth, row in rows.items():
        print(
            f"depth {depth:2d}: event {row['event_seconds'] * 1e3:8.3f} ms  "
            f"compiled {row['compiled_seconds'] * 1e3:7.3f} ms  "
            f"speedup {row['speedup']:5.1f}x"
        )
    print(
        f"batched K={len(graphs)} depth {batch_depth}: "
        f"{batch_seconds * 1e3:.3f} ms vs {scalar_seconds * 1e3:.3f} ms "
        f"scalar ({scalar_seconds / batch_seconds:.1f}x)"
    )

    deep_speedups = [
        rows[d]["speedup"] for d in COMPILED_DEPTHS if d >= 32
    ]
    assert max(deep_speedups) >= 5.0, (
        f"compiled executor speedup at depth>=32 fell to "
        f"{max(deep_speedups):.1f}x (< 5x acceptance bar)"
    )


def test_template_hit_beats_cold_compile():
    """A warm shape-template hit vs a cold compile, 1F1B at d16/m64.

    Both time ``build_schedule`` + ``compile_graph`` (no execution).  A
    cold compile walks the shape key and builds its structure; a hit of
    the same shape with a second model's costs only gathers a cost
    table.
    """
    depth, m = 16, 64
    profiles = [
        make_profile(DEEP_GPT, mbs, m, hardware=DEEP_HW) for mbs in (4, 2)
    ]
    cluster = Cluster(profiles[0].hardware)
    devices = cluster.pipeline_devices(depth)
    partitions = [uniform_partition(p, depth) for p in profiles]

    def compile_one(i: int) -> float:
        t0 = time.perf_counter()
        compile_graph(
            build_schedule(profiles[i], partitions[i], m), cluster,
            device_map=devices,
        )
        return time.perf_counter() - t0

    cold = hit = float("inf")
    for _ in range(3):
        clear_templates()
        cold = min(cold, compile_one(0))
        for _ in range(5):
            hit = min(hit, compile_one(1))
    print(
        f"\ntemplate d{depth}/m{m}: cold {cold * 1e3:.2f} ms, "
        f"hit {hit * 1e3:.3f} ms ({cold / hit:.0f}x)"
    )
    assert hit * 5 <= cold, (
        f"template hit {hit * 1e3:.3f} ms is not 5x faster than a cold "
        f"compile ({cold * 1e3:.2f} ms)"
    )


def test_cold_miss_beats_op_route():
    """A cold template miss vs the Op route, every family at d16/m64.

    A miss builds the key's op table and walks it with array operations
    (``clear_templates()``, then build and ``compile_graph``); the Op
    route emits the Op programs, lowers them and walks the lowering
    (``GraphStructure(_walk_programs(lower_programs(...)))``).  Best of 5
    each, in one process; the miss must be at least 6x faster.
    """
    depth, m = 16, 64
    profile = make_profile(DEEP_GPT, 4, m, hardware=DEEP_HW)
    cluster = Cluster(profile.hardware)
    devices = cluster.pipeline_devices(depth)
    partition = uniform_partition(profile, depth)

    def build(family: str):
        if family == "interleaved":
            return build_interleaved(profile, depth, m, num_chunks=2)
        if family in ("1f1b", "gpipe"):
            return build_schedule(profile, partition, m, family)
        plan = SlicePlan(depth - 1, m, family == "sliced-agg")
        return build_schedule(
            profile, partition, m, "sliced", slice_plan=plan
        )

    for family in ("1f1b", "gpipe", "sliced-agg", "sliced-noagg",
                   "interleaved"):
        cold = op_route = float("inf")
        for _ in range(5):
            clear_templates()
            t0 = time.perf_counter()
            compile_graph(build(family), cluster, device_map=devices)
            cold = min(cold, time.perf_counter() - t0)
            schedule = build(family)
            t0 = time.perf_counter()
            GraphStructure(
                _walk_programs(lower_programs(schedule, cluster, devices))
            )
            op_route = min(op_route, time.perf_counter() - t0)
        print(
            f"\n{family} d{depth}/m{m}: cold miss {cold * 1e3:.2f} ms, "
            f"Op route {op_route * 1e3:.2f} ms ({op_route / cold:.1f}x)"
        )
        assert cold * 6 <= op_route, (
            f"{family}: cold miss {cold * 1e3:.2f} ms is not 6x faster "
            f"than the Op route ({op_route * 1e3:.2f} ms)"
        )


def test_bench_planner_search(benchmark):
    """Planner search wall clock and the cross-call SimCache hit rate."""
    timings = {}
    for name, model in (("gpt2-345m", GPT2_345M), ("bert-large", BERT_LARGE)):
        profile = make_profile(model, 4, 16)
        best = float("inf")
        result = None
        for _ in range(3):
            t0 = time.perf_counter()
            result = plan_partition(profile, 8, 16)
            best = min(best, time.perf_counter() - t0)
        timings[name] = {"seconds": best, "evaluations": result.evaluations}

    # A shared cache across two identical searches must absorb every
    # simulation the second time around.
    profile = make_profile(GPT2_345M, 4, 16)
    cache = SimCache()
    plan_partition(profile, 8, 16, sim_cache=cache)
    cold_misses = cache.misses
    plan_partition(profile, 8, 16, sim_cache=cache)
    warm_misses = cache.misses - cold_misses

    warm = benchmark.pedantic(
        plan_partition, args=(profile, 8, 16),
        kwargs={"sim_cache": cache}, rounds=1, iterations=1,
    )

    print()
    for name, row in timings.items():
        print(f"planner {name}: {row['seconds'] * 1e3:8.2f} ms  "
              f"({row['evaluations']} evaluations)")
    print(f"sim cache: {cold_misses} cold misses, "
          f"{warm_misses} warm misses, {cache.hits} hits")

    assert warm.evaluations == timings["gpt2-345m"]["evaluations"]
    assert warm_misses == 0, "warm re-plan should be served from the cache"
