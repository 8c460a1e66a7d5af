"""AutoPipe's cluster-level configuration choice.

For the planner-comparison experiments (Tables III/IV) AutoPipe must decide
how to spend ``G`` GPUs: "its data-parallel size is the number of GPUs over
the pipeline stages, and it combines data and pipeline parallelism in the
way Megatron-LM uses" (Section IV-D) — i.e. every stage shares one DP
width.  AutoPipe's rule is the *shallowest pipeline that fits in memory*:
pipelining deeper than memory requires only adds bubbles, so it walks the
divisor depths in increasing order, checks the memory footprint of the
Algorithm-1 seed partition, and runs the full Planner search once for the
first feasible depth.

With low memory demand this picks pure data parallelism (matching Piper,
Table III); with high demand it picks 2 stages for GPT-2 345M at mbs 32
and 4 stages for GPT-2 1.3B at mbs 16 (Table IV).
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.baselines.common import PlannedConfig
from repro.core.balance_dp import BalanceTable
from repro.obs import telemetry as _obs
from repro.core.partition import PartitionScheme, _check_count, shift_repair
from repro.core.planner import plan_partition
from repro.parallel.memory_model import (
    MemoryTable,
    _check_config,
    config_memory,
    over_cap,
)
from repro.profiling.modelconfig import ModelProfile


def _fits(
    profile: ModelProfile,
    partition: PartitionScheme,
    dp: int,
    num_micro_batches_total: int,
    mbs: int,
) -> bool:
    peaks = config_memory(
        profile, partition, (dp,) * partition.num_stages,
        num_micro_batches_total, mbs,
    )
    return not over_cap(peaks, profile.hardware.gpu_memory)


def repair_memory(
    profile: ModelProfile,
    partition: PartitionScheme,
    dp: int,
    num_micro_batches_total: int,
    mbs: int,
) -> Optional[PartitionScheme]:
    """Shift blocks off memory-violating stages until the plan fits.

    The Planner balances *time*; the stage holding the loss head can still
    exceed device memory (its logits workspace is batch-proportional).
    This pass moves one boundary block at a time from the most-violating
    stage to its lighter neighbour, preferring the neighbour with more
    headroom, and gives up (returns ``None``) when no move helps.  Every
    move is scored by one :class:`MemoryTable`, with
    :func:`config_memory`'s stream peaks at a uniform width ``dp``.
    """
    m, _, replicas = _check_config(
        profile, partition, (dp,) * partition.num_stages,
        num_micro_batches_total, mbs,
    )
    table = MemoryTable(profile)
    in_flight = math.ceil(m / replicas[0])
    sizes = shift_repair(
        partition.sizes,
        lambda sizes: table.stage_peaks(sizes, in_flight),
        profile.hardware.gpu_memory,
        profile.num_blocks,
    )
    return None if sizes is None else PartitionScheme.from_sizes(sizes)


def autopipe_config(
    profile: ModelProfile,
    num_gpus: int,
    global_batch_size: int,
    *,
    granularity: str = "sublayer",
) -> PlannedConfig:
    """Choose (dp, pp) and the balanced partition for a whole cluster."""
    tel = _obs.current()
    t_obs = tel.clock() if tel is not None else 0
    t0 = _time.perf_counter()
    num_gpus = _check_count("num_gpus", num_gpus)
    global_batch_size = _check_count("global_batch_size", global_batch_size)
    mbs = profile.train.micro_batch_size
    if global_batch_size % mbs != 0:
        raise ValueError("global batch not divisible by micro-batch size")
    m_total = global_batch_size // mbs

    # One Algorithm-1 table over the block times answers the seed of
    # every divisor depth the walk probes.
    balance: Optional[BalanceTable] = None
    for pp in sorted(
        p for p in range(1, num_gpus + 1) if num_gpus % p == 0
    ):
        dp = num_gpus // pp
        if m_total % dp != 0 or m_total // dp < 1:
            continue
        m = m_total // dp
        if pp > profile.num_blocks:
            continue
        # Feasibility probe: the Algorithm-1 seed, memory-repaired if the
        # time-balanced split overloads a stage (typically the loss head's).
        if pp == 1:
            seed = PartitionScheme((tuple(range(profile.num_blocks)),))
        else:
            if balance is None:
                balance = BalanceTable(
                    profile.block_times(),
                    min(num_gpus, profile.num_blocks),
                )
            seed = balance.partition(pp)
        repaired_seed = repair_memory(profile, seed, dp, m_total, mbs)
        if repaired_seed is None:
            continue
        # First feasible depth wins; run the real Planner search for it,
        # memory-aware so it never returns an overloading scheme.
        if pp == 1:
            partition = repaired_seed
            predicted = profile.total_time() * m
        else:
            try:
                planned = plan_partition(
                    profile, pp, m, granularity=granularity,
                    memory_cap=profile.hardware.gpu_memory,
                )
                partition = planned.partition
                predicted = planned.iteration_time
            except RuntimeError:
                partition = repaired_seed
                predicted = profile.total_time() * m
        if tel is not None:
            tel.record_since(
                "strategy.autopipe_config", t_obs,
                gpus=num_gpus, dp=dp, pp=pp,
            )
        return PlannedConfig(
            planner="autopipe",
            partition=partition,
            replicas=(dp,) * pp,
            num_gpus=num_gpus,
            search_seconds=_time.perf_counter() - t0,
            predicted=predicted,
            semantics="stream",
            notes=f"dp{dp}xpp{pp}",
        )
    raise RuntimeError(
        "AutoPipe found no memory-feasible (dp, pp) configuration"
    )


# ---------------------------------------------------------------------------
# Cluster-wide joint autotuner.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AutotuneCandidate:
    """One point of the (dp x pp x slice-count) joint search space."""

    layout: "ParallelLayout"
    slice_count: int
    status: str
    partition: Optional[PartitionScheme] = None
    #: which search produced the partition: "oracle" (exact),
    #: "planner" (heuristic), or "trivial" (pp == 1).
    planner: str = ""
    #: DES-executed iteration time of one replica (s); the whole cluster
    #: consumes the global batch in this time at any layout, so values
    #: compare directly across layouts.
    iteration_seconds: float = float("inf")
    #: when the last stage starts its first forward (startup overhead).
    startup_seconds: float = 0.0
    #: Algorithm 2's slice count for this layout (the paper's answer;
    #: the autotuner searches the whole range instead).
    algorithm2_slices: int = 0
    plan_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class AutotuneResult:
    """Outcome of one cluster-wide joint autotune."""

    best: AutotuneCandidate
    candidates: Tuple[AutotuneCandidate, ...]
    search_seconds: float
    num_gpus: int

    @property
    def layouts_searched(self) -> int:
        return len({
            (c.layout.num_gpus, c.layout.pipeline_stages)
            for c in self.candidates
        })


def autotune_config(
    profile: ModelProfile,
    num_gpus: int,
    *,
    granularity: str = "sublayer",
    comm_mode: str = "paper",
    oracle_max_space: int = 50_000,
) -> AutotuneResult:
    """Joint (data-parallel x pipeline-depth x slice-count) search.

    AutoPipe's shipping rule (:func:`autopipe_config`) picks the
    shallowest memory-feasible pipeline and trusts Algorithm 2's slice
    count.  The autotuner *searches* instead: every batch-compatible
    layout of the cluster (:func:`repro.parallel.grid.layouts_for`) has
    its partition planned — through the exact oracle
    (:func:`repro.core.exhaustive.exhaustive_partition`) while the
    candidate space is at most ``oracle_max_space``, through the
    heuristic planner above that — and then every admissible Slicer
    count (0 .. p-1) is executed; the candidate with the lowest executed
    iteration time wins (ties break toward the shallower pipeline, then
    the smaller slice count).  Because each layout's replicas consume
    the global batch together, iteration times compare directly across
    layouts (data-parallel gradient synchronisation is outside the
    model, as everywhere in this repo).

    Memory-infeasible layouts are reported with status ``"OOM"``,
    depth-infeasible ones with ``"X"``; raises ``RuntimeError`` when no
    candidate is feasible.

    Each layout's slice-count sweep runs through
    :func:`repro.sim.slice_eval.evaluate_slice_counts`, which emits the
    compiled DAG of every candidate directly onto the shared shape
    templates and relaxes structure-sharing candidates in one batch,
    bit-identical to one ``run_pipeline`` per count (property-tested).
    """
    from repro.core.exhaustive import count_partitions, exhaustive_partition
    from repro.core.slicer import solve_slice_count
    from repro.hardware.cluster import Cluster
    from repro.parallel.grid import layouts_for
    from repro.sim.slice_eval import evaluate_slice_counts

    num_gpus = _check_count("num_gpus", num_gpus)
    tel = _obs.current()
    t_obs = tel.clock() if tel is not None else 0
    t0 = _time.perf_counter()
    cluster = Cluster(profile.hardware)
    train = profile.train
    mbs = train.micro_batch_size
    m_total = train.global_batch_size // mbs
    candidates: list = []

    # Shared Algorithm-1 table: every layout's repair fallback seeds
    # from the same one-time DP instead of re-solving per depth.
    balance: Optional[BalanceTable] = None

    def _alg1_seed(depth: int) -> PartitionScheme:
        nonlocal balance
        if balance is None:
            balance = BalanceTable(
                profile.block_times(),
                min(num_gpus, profile.num_blocks),
            )
        return balance.partition(depth)

    for layout in layouts_for(num_gpus, train):
        pp = layout.pipeline_stages
        dp = layout.data_parallel
        m = layout.micro_batches(train)
        if pp > profile.num_blocks:
            candidates.append(AutotuneCandidate(
                layout=layout, slice_count=0, status="X",
            ))
            continue

        # -- partition search ------------------------------------------
        t_plan = tel.clock() if tel is not None else 0
        plan_t0 = _time.perf_counter()
        partition: Optional[PartitionScheme] = None
        planner_name = ""
        if pp == 1:
            partition = PartitionScheme((tuple(range(profile.num_blocks)),))
            planner_name = "trivial"
        else:
            if count_partitions(profile.num_blocks, pp) <= oracle_max_space:
                oracle = exhaustive_partition(
                    profile, pp, m, comm_mode=comm_mode,
                    max_evaluations=None,
                )
                if _fits(profile, oracle.partition, dp, m_total, mbs):
                    partition = oracle.partition
                    planner_name = "oracle"
            if partition is None:
                try:
                    planned = plan_partition(
                        profile, pp, m, granularity=granularity,
                        comm_mode=comm_mode,
                        memory_cap=profile.hardware.gpu_memory,
                    )
                    partition = planned.partition
                    planner_name = "planner"
                except (RuntimeError, ValueError):
                    partition = None
            if partition is None or not _fits(
                profile, partition, dp, m_total, mbs
            ):
                repaired = repair_memory(
                    profile,
                    partition or _alg1_seed(pp),
                    dp, m_total, mbs,
                )
                if repaired is None:
                    candidates.append(AutotuneCandidate(
                        layout=layout, slice_count=0, status="OOM",
                    ))
                    continue
                partition = repaired
                planner_name = planner_name or "repair"
        plan_seconds = _time.perf_counter() - plan_t0
        if tel is not None:
            tel.record_since(
                "autotune.partition_search", t_plan,
                pp=pp, dp=dp, planner=planner_name,
            )
            t_slices = tel.clock()

        # -- slice-count sweep on the executed schedule ----------------
        from repro.core.partition import stage_times as _stage_times_of

        times = _stage_times_of(partition, profile)
        try:
            alg2 = solve_slice_count(times, m)
        except ValueError:
            alg2 = 0
        slice_counts = list(layout.slice_candidates(train))
        executions = evaluate_slice_counts(
            profile, partition, m, slice_counts, cluster=cluster,
        )
        for num_sliced, execution in zip(slice_counts, executions):
            candidates.append(AutotuneCandidate(
                layout=layout,
                slice_count=num_sliced,
                status="OOM" if execution.oom else "ok",
                partition=partition,
                planner=planner_name,
                iteration_seconds=execution.iteration_time,
                startup_seconds=execution.first_forward_start(pp - 1),
                algorithm2_slices=alg2,
                plan_seconds=plan_seconds,
            ))
        if tel is not None:
            tel.record_since(
                "autotune.slice_sweep", t_slices,
                pp=pp, counts=len(slice_counts),
            )

    feasible = [c for c in candidates if c.ok]
    if not feasible:
        raise RuntimeError(
            f"autotune found no feasible (dp, pp, slices) candidate "
            f"for {num_gpus} GPUs"
        )
    best = min(
        feasible,
        key=lambda c: (
            c.iteration_seconds, c.layout.pipeline_stages, c.slice_count,
        ),
    )
    result = AutotuneResult(
        best=best,
        candidates=tuple(candidates),
        search_seconds=_time.perf_counter() - t0,
        num_gpus=num_gpus,
    )
    if tel is not None:
        tel.record_since(
            "autotune.search", t_obs,
            gpus=num_gpus, layouts=result.layouts_searched,
            candidates=len(candidates),
        )
        tel.add("autotune.layouts", result.layouts_searched)
        tel.add("autotune.candidates", len(candidates))
    return result
