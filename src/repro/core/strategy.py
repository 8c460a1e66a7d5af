"""AutoPipe's cluster-level configuration choice.

For the planner-comparison experiments (Tables III/IV) AutoPipe must decide
how to spend ``G`` GPUs: "its data-parallel size is the number of GPUs over
the pipeline stages, and it combines data and pipeline parallelism in the
way Megatron-LM uses" (Section IV-D) — i.e. every stage shares one DP
width.  AutoPipe's rule is the *shallowest pipeline that fits in memory*:
pipelining deeper than memory requires only adds bubbles, so it walks the
divisor depths in increasing order and takes the first one that fits.
The memory-capped Planner (:func:`plan_partition` with ``memory_cap``) is
the one judge of whether a pipeline fits: it seeds the Algorithm-1
partition, and its memory-repaired variant when the seed overloads a
stage, and never returns a scheme above the cap.

With low memory demand this picks pure data parallelism (matching Piper,
Table III); with high demand it picks 2 stages for GPT-2 345M at mbs 32
and 4 stages for GPT-2 1.3B at mbs 16 (Table IV).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro import _checks
from repro.baselines.common import PlannedConfig
from repro.obs import telemetry as _obs
from repro.core.partition import PartitionScheme, stage_times
from repro.core.planner import plan_partition
from repro.parallel.memory_model import config_memory, over_cap
from repro.profiling.modelconfig import ModelProfile

#: Largest candidate space the autotuner hands to the exact oracle; deeper
#: layouts go to the Planner.  The oracle's memory grows with the space:
#: uncapped, over the autotuner's layouts of the zoo at 4-16 GPUs, it was
#: killed for memory on an 8 GB host, so the gate stays until the
#: oracle's memory is bounded.
_ORACLE_MAX_SPACE = 50_000


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


def _one_stage(profile: ModelProfile) -> PartitionScheme:
    return PartitionScheme((tuple(range(profile.num_blocks)),))


def autopipe_config(
    profile: ModelProfile,
    num_gpus: int,
    global_batch_size: int,
) -> PlannedConfig:
    """Choose (dp, pp) and the balanced partition for a whole cluster.

    Walks the divisor depths ``pp`` of ``num_gpus`` shallowest first, at
    ``dp = num_gpus / pp``, and returns the first that fits: one stage
    when the whole model fits a device, a pipeline when the memory-capped
    Planner finds a plan (its ``RuntimeError`` moves the walk on).  Raises
    ``RuntimeError`` when no depth fits.
    """
    tel = _obs.current()
    t_obs = tel.clock() if tel is not None else 0
    t0 = _time.perf_counter()
    num_gpus = _checks.count("num_gpus", num_gpus)
    global_batch_size = _checks.count("global_batch_size", global_batch_size)
    mbs = profile.train.micro_batch_size
    if global_batch_size % mbs != 0:
        raise ValueError("global batch not divisible by micro-batch size")
    m_total = global_batch_size // mbs

    for pp in range(1, min(num_gpus, profile.num_blocks) + 1):
        dp = num_gpus // pp
        if num_gpus % pp != 0 or m_total % dp != 0:
            continue
        m = m_total // dp
        if pp == 1:
            partition = _one_stage(profile)
            if not _fits(profile, partition, dp, m_total, mbs):
                continue
            predicted = profile.total_time() * m
        else:
            try:
                planned = plan_partition(
                    profile, pp, m, memory_cap=profile.hardware.gpu_memory,
                )
            except RuntimeError:
                continue
            partition = planned.partition
            predicted = planned.iteration_time
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
    #: which search produced the partition: "oracle" (exact, and its
    #: argmin fits), "planner" (the memory-capped heuristic), "trivial"
    #: (pp == 1), or "" when no partition fits (status "OOM").
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
) -> AutotuneResult:
    """Joint (data-parallel x pipeline-depth x slice-count) search.

    AutoPipe's shipping rule (:func:`autopipe_config`) picks the
    shallowest memory-feasible pipeline and trusts Algorithm 2's slice
    count.  The autotuner *searches* instead: every batch-compatible
    layout of the cluster (:func:`repro.parallel.grid.layouts_for`) has
    its partition planned, and then every admissible Slicer count
    (0 .. p-1) is executed; the candidate with the lowest executed
    iteration time wins (ties break toward the shallower pipeline, then
    the smaller slice count).  Because each layout's replicas consume
    the global batch together, iteration times compare directly across
    layouts (data-parallel gradient synchronisation is outside the
    model, as everywhere in this repo).

    A pipelined layout's partition comes from the first of: the exact
    oracle (:func:`repro.core.exhaustive.exhaustive_partition`), when
    its candidate space is at most ``_ORACLE_MAX_SPACE`` and its argmin
    fits in memory; the memory-capped Planner; otherwise the layout is
    reported with status ``"OOM"``.  Depth-infeasible layouts get
    ``"X"``; raises ``RuntimeError`` when no candidate is feasible.

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

    num_gpus = _checks.count("num_gpus", num_gpus)
    tel = _obs.current()
    t_obs = tel.clock() if tel is not None else 0
    t0 = _time.perf_counter()
    cluster = Cluster(profile.hardware)
    train = profile.train
    mbs = train.micro_batch_size
    m_total = train.global_batch_size // mbs
    candidates: list = []

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
        if pp == 1:
            partition, planner_name = _one_stage(profile), "trivial"
        else:
            partition, planner_name = None, ""
            if count_partitions(profile.num_blocks, pp) <= _ORACLE_MAX_SPACE:
                oracle = exhaustive_partition(
                    profile, pp, m, max_evaluations=None,
                )
                if _fits(profile, oracle.partition, dp, m_total, mbs):
                    partition, planner_name = oracle.partition, "oracle"
            if partition is None:
                try:
                    partition = plan_partition(
                        profile, pp, m,
                        memory_cap=profile.hardware.gpu_memory,
                    ).partition
                except RuntimeError:
                    candidates.append(AutotuneCandidate(
                        layout=layout, slice_count=0, status="OOM",
                    ))
                    continue
                planner_name = "planner"
        plan_seconds = _time.perf_counter() - plan_t0
        if tel is not None:
            tel.record_since(
                "autotune.partition_search", t_plan,
                pp=pp, dp=dp, planner=planner_name,
            )
            t_slices = tel.clock()

        # -- slice-count sweep on the executed schedule ----------------
        times = stage_times(partition, profile)
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
