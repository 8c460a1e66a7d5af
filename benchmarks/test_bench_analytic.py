"""Analytic max-plus kernel bench: frontier sweep vs graph vs event loop.

Prints three tables:

* the kernel table — scoring one 1F1B pipeline at depths 8–64 via the
  closed-form frontier sweep (single candidate and amortised over a
  K=1024 batch) against the warm compiled graph and the warm event
  engine.  The kernel reads only the ``(K, depth)`` stage-cost matrix,
  so its cost is independent of the per-op count that both executors
  walk.
* the climb-width table — one stage-major sweep of K = 70 columns, the
  width of an oracle seed-climb round, at a depth-8 and a depth-12
  shape in both comm modes: the small-K per-call cost, which is mostly
  fixed per-step overhead.  It is printed, not bounded.
* the oracle table — the depth-8/10 exact oracle end to end (the
  pruned, kernel-scored search) against its specification, the
  ``prune=False`` brute force.  The brute force is *projected*, not
  run: the search space times the mean scalar :class:`PipelineSim`
  time over a fixed sample of candidates (running it would take
  minutes; argmin equality with the brute force is property-tested in
  ``tests/``).

Guard (depth-8 row): the pruned oracle is >= 6,500x faster than the
projected brute force.  Earlier guards held it to >= 10x vs the
per-node branch-and-bound (itself ~480x faster than brute force) and
>= 2.5x vs the lattice scorer (~2,600x), so this floor keeps the bar
where those two put it.
"""

from __future__ import annotations

import random
import time

import numpy as np

from benchmarks.conftest import TINY12, _best_of, run_and_print
from repro.baselines.megatron import uniform_partition
from repro.config import TrainConfig
from repro.core.analytic_sim import PipelineSim
from repro.core.exhaustive import exhaustive_partition
from repro.core.partition import PartitionScheme, stage_times
from repro.experiments.common import ExperimentResult, make_profile
from repro.experiments.deep_pipeline import DEEP_GPT, DEEP_HW
from repro.hardware.cluster import Cluster
from repro.hardware.device import DEFAULT_CLUSTER_HW
from repro.profiling import profile_model
from repro.runtime.trainer import build_schedule
from repro.sim.analytic import frontier_times, frontier_times_transposed
from repro.sim.engine import Engine
from repro.sim.graph_exec import compile_graph

KERNEL_DEPTHS = (8, 16, 32, 64)
_BATCH_K = 1024
#: columns of one oracle seed-climb round, and the (depth, m) shapes
#: timed at that width.
_CLIMB_K = 70
_CLIMB_SHAPES = ((8, 16), (12, 24))
#: candidates timed to project the brute force's per-candidate cost.
_BRUTE_SAMPLE = 2000
#: floor on projected-brute / pruned-oracle wall clock at depth 8.
_MIN_SPEEDUP_VS_BRUTE = 6500.0


def run_kernel_vs_executors():
    result = ExperimentResult(
        name="Analytic frontier kernel vs compiled graph vs event engine",
        headers=["depth", "m", "kernel (µs)", "kernel/cand K=1024 (µs)",
                 "compiled (ms)", "event (ms)", "compiled/kernel (batched)",
                 "event/kernel (batched)"],
    )
    for depth in KERNEL_DEPTHS:
        m = 2 * depth
        profile = make_profile(DEEP_GPT, 4, m, hardware=DEEP_HW)
        partition = uniform_partition(profile, depth)
        sched = build_schedule(profile, partition, m)
        cluster = Cluster(profile.hardware)
        devices = cluster.pipeline_devices(depth)
        times = stage_times(partition, profile)
        fwd = np.asarray([times.fwd])
        bwd = np.asarray([times.bwd])
        comm = times.comm
        rng = np.random.default_rng(0)
        fwd_k = np.repeat(fwd, _BATCH_K, axis=0) * rng.uniform(
            0.8, 1.2, size=(_BATCH_K, depth))
        bwd_k = np.repeat(bwd, _BATCH_K, axis=0) * rng.uniform(
            0.8, 1.2, size=(_BATCH_K, depth))

        reps = 5 if depth <= 16 else 2
        t_kernel = _best_of(
            lambda: frontier_times(fwd, bwd, comm, m), max(reps, 3))
        t_batch = _best_of(
            lambda: frontier_times(fwd_k, bwd_k, comm, m), 3) / _BATCH_K
        graph = compile_graph(sched, cluster, device_map=devices)
        graph.run()  # warm
        t_compiled = _best_of(lambda: graph.run(), reps)
        engine = Engine(sched, cluster, device_map=devices)
        engine.run()  # warm (programs lowered)
        t_event = _best_of(
            lambda: Engine(sched, cluster, device_map=devices).run(), reps)

        # The kernel's advantage is K-at-once scoring: a single K=1 call
        # is mostly Python/numpy dispatch over tiny arrays (comparable
        # to a warm graph.run()), while one K=1024 sweep amortises the
        # O(depth + m) strided updates to well under a microsecond per
        # candidate.  The ratio columns therefore use the batched
        # per-candidate figure — the regime every search caller is in.
        result.rows.append([
            depth, m, f"{t_kernel * 1e6:.1f}", f"{t_batch * 1e6:.2f}",
            f"{t_compiled * 1e3:.2f}", f"{t_event * 1e3:.2f}",
            f"{t_compiled / t_batch:.0f}x", f"{t_event / t_batch:.0f}x",
        ])
    return result


def run_kernel_at_climb_width():
    result = ExperimentResult(
        name=f"Frontier kernel at the seed climb's width (K = {_CLIMB_K})",
        headers=["depth", "m", "paper (µs/call)", "edges (µs/call)",
                 "paper per column (µs)"],
    )
    rng = np.random.default_rng(0)
    for depth, m in _CLIMB_SHAPES:
        fwd_t = rng.uniform(0.3, 4.0, size=(depth, _CLIMB_K))
        bwd_t = rng.uniform(0.5, 6.0, size=(depth, _CLIMB_K))
        per_call = {
            mode: _best_of(
                lambda mode=mode: frontier_times_transposed(
                    fwd_t, bwd_t, 0.1, m, comm_mode=mode
                ),
                9,
            )
            for mode in ("paper", "edges")
        }
        result.rows.append([
            depth, m, f"{per_call['paper'] * 1e6:.0f}",
            f"{per_call['edges'] * 1e6:.0f}",
            f"{per_call['paper'] * 1e6 / _CLIMB_K:.2f}",
        ])
    return result


def projected_brute_seconds(profile, depth: int, m: int, space: int) -> float:
    """The ``prune=False`` oracle's projected wall clock: ``space`` times
    the mean scalar simulation time over a fixed random sample.

    Only the simulations are timed (the brute force also sums stage
    costs per candidate), so the projection understates the spec's cost.
    """
    n = profile.num_blocks
    rng = random.Random(0)
    sample = []
    for _ in range(_BRUTE_SAMPLE):
        cuts = sorted(rng.sample(range(1, n), depth - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        sample.append(stage_times(PartitionScheme.from_sizes(sizes), profile))
    t0 = time.perf_counter()
    for times in sample:
        PipelineSim(times, m).run()
    return space * (time.perf_counter() - t0) / len(sample)


def run_oracle_end_to_end():
    result = ExperimentResult(
        name="Exact oracle end to end: pruned search vs projected brute force",
        headers=["depth", "m", "space", "evals", "pruned (ms)",
                 "brute, projected (s)", "vs brute"],
    )
    cases = [
        # (depth, m, global batch, reps)
        (8, 32, 128, 3),
        (10, 20, 80, 2),
    ]
    for depth, m, gbs, reps in cases:
        profile = profile_model(
            TINY12, DEFAULT_CLUSTER_HW,
            TrainConfig(micro_batch_size=4, global_batch_size=gbs),
        )
        kw = dict(max_evaluations=None)
        res = exhaustive_partition(profile, depth, m, **kw)
        t_pruned = _best_of(
            lambda: exhaustive_partition(profile, depth, m, **kw), reps
        )
        t_brute = projected_brute_seconds(profile, depth, m, res.space)
        result.rows.append([
            depth, m, res.space, res.evaluations,
            f"{t_pruned * 1e3:.1f}", f"{t_brute:.1f}",
            f"{t_brute / t_pruned:.0f}x",
        ])
    return result


def run_analytic_bench():
    kernel_result = run_kernel_vs_executors()
    climb_result = run_kernel_at_climb_width()
    oracle_result = run_oracle_end_to_end()
    combined = ExperimentResult(
        name=kernel_result.name, headers=kernel_result.headers,
        rows=kernel_result.rows,
        meta={"oracle_rows": oracle_result.rows},
    )
    print()
    print(climb_result.render())
    print()
    print(oracle_result.render())
    return combined


def test_bench_analytic(benchmark):
    result = run_and_print(benchmark, run_analytic_bench)
    oracle = {row[0]: row for row in result.meta["oracle_rows"]}
    # Guard (depth-8 row): see the module docstring for how the floor
    # relates to the retired per-node and lattice comparators.
    assert float(oracle[8][-1].rstrip("x")) >= _MIN_SPEEDUP_VS_BRUTE
    assert 10 in oracle
    # Batched per-candidate scoring beats the warm compiled graph by a
    # wide margin at every depth (measured 60-260x; floor at 20x).
    for row in result.rows:
        assert float(row[-2].rstrip("x")) >= 20.0

