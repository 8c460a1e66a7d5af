"""Property suite: analytic max-plus kernel == lattice sim == event engine.

Bit-identity (not approximate equality) is the contract that lets
:mod:`repro.sim.analytic` silently replace the lattice simulator as the
default scorer for the oracle, the robust planner and the robustness
batch evaluators.  Hypothesis drives randomized stage-cost matrices,
micro-batch counts, both comm accounting modes, cost jitter and
perturbation factors, and asserts:

* :func:`frontier_times` / :func:`frontier_times_transposed` reproduce
  ``K`` scalar :class:`PipelineSim` runs bit for bit and reject the
  inputs :class:`PipelineSim` rejects;
* an oracle-sized sweep (``K = 4096``) allocates no more than a few
  cost matrices;
* :func:`robust_iteration_times` / :func:`robust_objective_batch` match
  per-draw scalar lattice sims under compute-noise, straggler and
  comm-degradation factors (the contract the robustness docstrings cite);
* :func:`execute_analytic` matches the event :class:`Engine` and the
  compiled graph executor on every lowered schedule family, and raises
  :class:`AnalyticUnsupported` on comm wait cycles the engine diagnoses
  as deadlock;
* the kernel-scored ``exhaustive_partition`` returns the identical
  argmin, tie-breaks and iteration time as the unpruned brute force;
* the planner's 1F1B memory model is the in-flight closed form.
"""

import dataclasses
import random
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.megatron import uniform_partition
from repro.config import HardwareConfig, ModelConfig, TrainConfig
from repro.core.analytic_sim import PipelineSim
from repro.core.exhaustive import exhaustive_partition
from repro.core.partition import PartitionScheme, StageTimes, stage_times
from repro.core.slicer import SlicePlan, make_slice_plan
from repro.experiments.common import make_profile
from repro.hardware.cluster import Cluster
from repro.models.blocks import Block, BlockKind
from repro.models.zoo import GPT2_345M
from repro.parallel import stage_memory
from repro.profiling.modelconfig import BlockProfile, ModelProfile
from repro.robustness.evaluate import (
    reduce_statistic,
    robust_iteration_times,
    robust_objective_batch,
)
from repro.robustness.perturbation import (
    CommDegradation,
    StageCostNoise,
    Straggler,
    draw_factors,
)
from repro.runtime.trainer import build_schedule
from repro.schedules.base import CommOp, ComputeOp, Schedule, Transfer
from repro.schedules.interleaved import build_interleaved
from repro.sim.analytic import (
    AnalyticUnsupported,
    execute_analytic,
    frontier_times,
    frontier_times_transposed,
)
from repro.sim.engine import Engine
from repro.sim.graph_exec import execute_fast


def _cost_matrices(k, n, seed, tie_heavy=False):
    rng = np.random.default_rng(seed)
    if tie_heavy:
        pool = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
        fwd = pool[rng.integers(0, pool.size, size=(k, n))]
        bwd = pool[rng.integers(0, pool.size, size=(k, n))]
    else:
        fwd = rng.uniform(0.3, 4.0, size=(k, n))
        bwd = rng.uniform(0.5, 6.0, size=(k, n))
    return fwd, bwd


# -- frontier sweep vs K scalar lattice sims --------------------------------


def _stages_and_micro_batches():
    """``(n, m)`` with ``m`` drawn in ``1 .. 3n`` on its own, so ``m = 1``,
    ``n = 1``, ``m < n - 1`` (warmup cap, fix rows) and ``m >> n`` occur."""
    return st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=1,
                                                    max_value=3 * n))
    )


@settings(max_examples=80, deadline=None)
@given(
    shape=_stages_and_micro_batches(),
    k=st.integers(min_value=1, max_value=70),
    comm_mode=st.sampled_from(("paper", "edges")),
    comm_kind=st.sampled_from(("zero", "scalar", "vector")),
    tie_heavy=st.booleans(),
    transposed=st.booleans(),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_frontier_equals_scalar_sims(
    shape, k, comm_mode, comm_kind, tie_heavy, transposed, seed
):
    n, m = shape
    fwd, bwd = _cost_matrices(k, n, seed, tie_heavy)
    rng = np.random.default_rng(seed + 1)
    if comm_kind == "zero":
        comm = 0.0
    elif comm_kind == "scalar":
        comm = float(rng.uniform(0.0, 0.6))
    else:
        comm = rng.uniform(0.0, 0.6, size=k)
    # Bitwise what K scalar lattice sims produce.
    comm_vec = np.broadcast_to(np.asarray(comm, dtype=np.float64), (k,))
    scalar = np.array([
        PipelineSim(
            StageTimes(tuple(fwd[i]), tuple(bwd[i]), float(comm_vec[i])),
            m,
            comm_mode=comm_mode,
        ).run().iteration_time
        for i in range(k)
    ])
    if transposed:
        # The oracle's stage-major entry point: one (K,) array.
        times = frontier_times_transposed(
            np.ascontiguousarray(fwd.T), np.ascontiguousarray(bwd.T), comm,
            m, comm_mode=comm_mode,
        )
    else:
        times = frontier_times(fwd, bwd, comm, m, comm_mode=comm_mode)
    assert times.shape == (k,)
    assert np.array_equal(times, scalar)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=9),
    k=st.integers(min_value=2, max_value=24),
    m=st.integers(min_value=2, max_value=12),
    comm_mode=st.sampled_from(("paper", "edges")),
    tie_heavy=st.booleans(),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_transposed_sweep_bitwise_equals_batch_sweep(
    n, k, m, comm_mode, tie_heavy, seed
):
    # The stage-major entry point scores every column, bitwise the batch
    # sweep, so the optimum and its argmin are the batch sweep's.
    fwd, bwd = _cost_matrices(k, n, seed, tie_heavy)
    comm = float(np.random.default_rng(seed + 2).uniform(0.0, 0.5))
    full = frontier_times(fwd, bwd, comm, m, comm_mode=comm_mode)
    times = frontier_times_transposed(
        np.ascontiguousarray(fwd.T), np.ascontiguousarray(bwd.T), comm, m,
        comm_mode=comm_mode,
    )
    assert times.shape == (k,)
    assert np.array_equal(times, full)
    assert int(np.argmin(times)) == int(np.argmin(full))
    assert times.min() == full.min()


# -- input checks -----------------------------------------------------------

_ONES = np.ones((2, 3))


@pytest.mark.parametrize("entry", ("batch", "transposed"))
@pytest.mark.parametrize(
    "fwd, bwd, comm, m, error, match",
    [
        (-_ONES, _ONES, 0.1, 4, ValueError, "fwd"),
        (_ONES, -_ONES, 0.1, 4, ValueError, "bwd"),
        (_ONES, _ONES, -0.5, 4, ValueError, "comm"),
        (_ONES, _ONES, np.array([0.1, -0.1]), 4, ValueError, "comm"),
        (np.where(np.eye(2, 3) > 0, np.nan, 1.0), _ONES, 0.1, 4, ValueError,
         "fwd"),
        (_ONES, np.where(np.eye(2, 3) > 0, np.inf, 1.0), 0.1, 4, ValueError,
         "bwd"),
        (_ONES, _ONES, np.nan, 4, ValueError, "comm"),
        (_ONES, _ONES, np.array([np.inf, 0.1]), 4, ValueError, "comm"),
        (_ONES, _ONES, 0.1, True, TypeError, "num_micro_batches"),
        (_ONES, _ONES, 0.1, 2.5, TypeError, "num_micro_batches"),
        (_ONES, _ONES, 0.1, 0, ValueError, "num_micro_batches"),
    ],
    ids=(
        "neg-fwd", "neg-bwd", "neg-comm", "neg-comm-vector", "nan-fwd",
        "inf-bwd", "nan-comm", "inf-comm-vector", "m-bool", "m-float",
        "m-zero",
    ),
)
def test_kernel_rejects_what_the_scalar_sim_rejects(
    entry, fwd, bwd, comm, m, error, match
):
    with pytest.raises(error, match=match):
        if entry == "batch":
            frontier_times(fwd, bwd, comm, m)
        else:
            frontier_times_transposed(
                np.ascontiguousarray(fwd.T), np.ascontiguousarray(bwd.T),
                comm, m,
            )


# -- oracle-sized sweeps: allocation guard ------------------------------------

_WIDE_K = 4096


@pytest.mark.parametrize("n, m", ((12, 24), (8, 32)))
def test_sweep_allocates_few_cost_matrices(n, m):
    """Peak allocation of one sweep: frontier rows, parity-ordered costs
    and one scratch.

    The steady loop holds two ``(n + 1, K)`` frontiers, the costs
    reordered even rows first (two ``(n, K)`` copies) and an
    ``(n // 2 + 1, K)`` scratch, about 4.5 cost matrices; warmup and
    cooldown use a frontier buffer as their scratch.  The guard allows
    five.
    """
    fwd, bwd = _cost_matrices(_WIDE_K, n, seed=7)
    fwd_t, bwd_t = np.ascontiguousarray(fwd.T), np.ascontiguousarray(bwd.T)
    comm = 0.3
    frontier_times_transposed(fwd_t, bwd_t, comm, m)  # warm any lazy state
    tracemalloc.start()
    try:
        frontier_times_transposed(fwd_t, bwd_t, comm, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * fwd_t.nbytes


# -- robustness evaluators vs perturbed scalar sims -------------------------


_PERTURBATIONS = (
    (StageCostNoise(sigma=0.08),),
    (Straggler(slowdown=1.7, probability=0.5),),
    (Straggler(slowdown=2.0, stage=0), CommDegradation(factor=3.0)),
    (
        StageCostNoise(sigma=0.05),
        Straggler(slowdown=1.4, probability=0.3),
        CommDegradation(factor=2.0, probability=0.4),
    ),
)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    m=st.integers(min_value=2, max_value=10),
    comm_mode=st.sampled_from(("paper", "edges")),
    models=st.sampled_from(_PERTURBATIONS),
    draws=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_robust_times_match_perturbed_scalar_sims(
    n, m, comm_mode, models, draws, seed
):
    rng = np.random.default_rng(seed)
    times = StageTimes(
        tuple(rng.uniform(0.3, 4.0, size=n)),
        tuple(rng.uniform(0.5, 6.0, size=n)),
        float(rng.uniform(0.0, 0.5)),
    )
    factors = draw_factors(models, n, draws, seed)
    got = robust_iteration_times(times, m, factors, comm_mode=comm_mode)
    fwd, bwd, comm = factors.apply(times)
    for i in range(draws):
        sim = PipelineSim(
            StageTimes(tuple(fwd[i]), tuple(bwd[i]), float(comm[i])),
            m,
            comm_mode=comm_mode,
        ).run()
        assert got[i] == sim.iteration_time


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    c=st.integers(min_value=1, max_value=5),
    m=st.integers(min_value=2, max_value=8),
    comm_mode=st.sampled_from(("paper", "edges")),
    statistic=st.sampled_from(("mean", "p95", "max")),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_robust_objective_batch_matches_per_candidate(
    n, c, m, comm_mode, statistic, seed
):
    rng = np.random.default_rng(seed)
    fwd = rng.uniform(0.3, 4.0, size=(c, n))
    bwd = rng.uniform(0.5, 6.0, size=(c, n))
    comm = float(rng.uniform(0.0, 0.5))
    factors = draw_factors(_PERTURBATIONS[3], n, 8, seed)
    got = robust_objective_batch(
        fwd, bwd, comm, m, factors, statistic, comm_mode=comm_mode
    )
    for i in range(c):
        times = StageTimes(tuple(fwd[i]), tuple(bwd[i]), comm)
        draws = robust_iteration_times(times, m, factors, comm_mode=comm_mode)
        assert got[i] == reduce_statistic(draws, statistic)


# -- execute_analytic vs event engine vs compiled graphs --------------------

_FAMILIES = ("1f1b", "gpipe", "sliced-agg", "sliced-noagg", "interleaved")


def _jitter(schedule: Schedule, seed: int) -> Schedule:
    """Same-shape schedule with perturbed costs (mirror transfers stay
    equal so the rendezvous exchange times remain well-defined)."""
    rng = random.Random(seed)

    def tag_factor(tag: str) -> float:
        return 0.5 + (zlib.crc32(tag.encode()) % 1000) / 999.0

    programs = []
    for program in schedule.programs:
        ops = []
        for op in program:
            if isinstance(op, ComputeOp):
                ops.append(dataclasses.replace(
                    op,
                    duration=op.duration * (0.5 + rng.random()),
                    alloc_bytes=op.alloc_bytes * (0.5 + rng.random()),
                    free_bytes=op.free_bytes * (0.5 + rng.random()),
                    workspace_bytes=op.workspace_bytes * (0.5 + rng.random()),
                ))
            else:
                ops.append(dataclasses.replace(op, transfers=tuple(
                    dataclasses.replace(t, bytes=t.bytes * tag_factor(t.tag))
                    for t in op.transfers
                )))
        programs.append(ops)
    return Schedule(
        name=schedule.name,
        programs=programs,
        static_bytes=[b * (0.5 + rng.random()) for b in schedule.static_bytes],
    )


def _build(family, profile, depth, m, seed):
    if family == "interleaved":
        return build_interleaved(profile, depth, m, num_chunks=2)
    rng = random.Random(seed)
    blocks = profile.num_blocks
    if family in ("1f1b", "gpipe") and depth < blocks and rng.random() < 0.5:
        cuts = sorted(rng.sample(range(1, blocks), depth - 1))
        partition = PartitionScheme.from_boundaries(blocks, cuts)
    else:
        partition = uniform_partition(profile, depth)
    if family == "1f1b":
        return build_schedule(profile, partition, m)
    if family == "gpipe":
        return build_schedule(profile, partition, m, "gpipe")
    if family == "sliced-agg":
        plan = make_slice_plan(stage_times(partition, profile), m)
    else:
        plan = SlicePlan(
            num_sliced=min(depth, m), num_micro_batches=m,
            aggregate_last_warmup_comm=False,
        )
    return build_schedule(profile, partition, m, "sliced", slice_plan=plan)


@settings(max_examples=40, deadline=None)
@given(
    depth=st.sampled_from((2, 3, 4, 6)),
    mb_per_stage=st.integers(min_value=1, max_value=3),
    family=st.sampled_from(_FAMILIES),
    jitter=st.booleans(),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_execute_analytic_equals_event_and_compiled(
    depth, mb_per_stage, family, jitter, seed
):
    m = depth * mb_per_stage
    profile = make_profile(GPT2_345M, 4, m)
    cluster = Cluster(profile.hardware)
    devices = cluster.pipeline_devices(depth)
    schedule = _build(family, profile, depth, m, seed)
    if jitter:
        schedule = _jitter(schedule, seed)
    ref = Engine(schedule, cluster, device_map=devices).run()
    compiled = execute_fast(schedule, cluster, device_map=devices)
    analytic = execute_analytic(schedule, cluster, device_map=devices)
    for fast in (compiled, analytic):
        assert fast.iteration_time == ref.iteration_time
        assert fast.peak_memory == ref.peak_memory
        assert fast.oom_devices == ref.oom_devices
        assert fast.oom == ref.oom
        for d in range(len(devices)):
            assert fast.busy_time(d) == ref.busy_time(d)
            assert fast.first_forward_start(d) == ref.first_forward_start(d)


def test_deadlock_raises_analytic_unsupported():
    sched = Schedule("t", [
        [CommOp(0, 1, (Transfer("a", 0, 1, 1.0),)),
         CommOp(0, 1, (Transfer("b", 1, 0, 1.0),))],
        [CommOp(1, 0, (Transfer("b", 1, 0, 1.0),)),
         CommOp(1, 0, (Transfer("a", 0, 1, 1.0),))],
    ])
    with pytest.raises(AnalyticUnsupported) as err:
        execute_analytic(sched, Cluster(HardwareConfig()))
    assert "event" in str(err.value)


# -- oracle equivalence: kernel-scored search == brute force ---------------

_ORACLE_MODEL = ModelConfig(
    name="prop", num_layers=1, hidden_size=64, num_heads=4
)
_ORACLE_HW = HardwareConfig()
_ORACLE_TRAIN = TrainConfig(micro_batch_size=1, global_batch_size=8)


def _synthetic_profile(costs, comm):
    blocks = tuple(
        BlockProfile(
            block=Block(index=i, kind=BlockKind.ATTENTION, layer_index=i),
            fwd_time=f, bwd_time=b,
            params=1.0, activation_out_bytes=1.0,
            stash_bytes=1.0, workspace_bytes=1.0,
        )
        for i, (f, b) in enumerate(costs)
    )
    return ModelProfile(
        model=_ORACLE_MODEL, hardware=_ORACLE_HW, train=_ORACLE_TRAIN,
        blocks=blocks, comm_time=comm, boundary_bytes=1.0,
    )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=10),
    p=st.integers(min_value=2, max_value=5),
    m=st.sampled_from((2, 4, 6, 9)),
    comm=st.sampled_from((0.0, 0.05, 0.4)),
    comm_mode=st.sampled_from(("paper", "edges")),
    tie_heavy=st.booleans(),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_oracle_identical_argmin_and_tiebreaks(
    n, p, m, comm, comm_mode, tie_heavy, seed
):
    p = min(p, n)
    rng = random.Random(seed)
    if tie_heavy:
        pool = (0.5, 1.0, 1.5, 2.0, 3.0)
        costs = [(rng.choice(pool), rng.choice(pool)) for _ in range(n)]
    else:
        costs = [
            (rng.uniform(0.5, 4.0), rng.uniform(0.8, 6.0)) for _ in range(n)
        ]
    prof = _synthetic_profile(costs, comm)
    ana = exhaustive_partition(prof, p, m, comm_mode=comm_mode)
    bru = exhaustive_partition(prof, p, m, prune=False, comm_mode=comm_mode)
    assert ana.partition.sizes == bru.partition.sizes
    assert ana.iteration_time == bru.iteration_time
    assert ana.evaluations <= bru.evaluations


# -- closed-form memory model -----------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.integers(min_value=4, max_value=12),
    p=st.integers(min_value=2, max_value=4),
    m=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_peak_memory_matches_planner_model(blocks, p, m, seed):
    """The planner's memory model is the 1F1B in-flight closed form: stage
    ``s`` holds ``min(m, n - s)`` stashes on top of its static bytes and
    one transient workspace."""
    p = min(p, blocks)
    rng = random.Random(seed)
    costs = [(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
             for _ in range(blocks)]
    prof = _synthetic_profile(costs, 0.1)
    cuts = sorted(rng.sample(range(1, blocks), p - 1))
    partition = PartitionScheme.from_boundaries(blocks, cuts)
    state = prof.train.bytes_per_param_state
    for s, blk in enumerate(partition.stages):
        static = sum(prof.blocks[i].params for i in blk) * state
        stash = sum(prof.blocks[i].stash_bytes for i in blk)
        work = max(prof.blocks[i].workspace_bytes for i in blk)
        closed_form = static + min(m, p - s) * stash + work
        assert closed_form == stage_memory(prof, partition, s, m)
