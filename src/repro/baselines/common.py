"""Shared types for the DAPPLE / Piper / AutoPipe planner comparison.

All three planners answer the same question — how to spend ``G`` GPUs on a
model — but with different decision spaces:

* DAPPLE and Piper may give **different data-parallel widths to different
  stages**: a stage with ``r`` replicas splits every micro-batch into
  ``ceil(mbs / r)``-sample sub-batches (this is why DAPPLE's 15-wide second
  stage errors out at micro-batch size 4 — Table III's "-" entry);
* AutoPipe uses one data-parallel width for the whole pipeline
  (Megatron-style grid), so its plan is a :class:`PartitionScheme` plus a
  scalar ``dp``.

:class:`PlannedConfig` is the common result format, and
:func:`evaluate_config` executes any of them on the recurrence simulator
with effective (replica-scaled) stage times, explicit gradient allreduce
and the memory model — producing the "time per iteration" numbers of
Tables III/IV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro import _checks
from repro.core.partition import PartitionScheme, StageTimes
from repro.core.analytic_sim import PipelineSim
from repro.models.costs import small_batch_slowdown
from repro.parallel.data_parallel import allreduce_seconds
from repro.parallel.memory_model import SEMANTICS, config_memory, over_cap
from repro.profiling.modelconfig import ModelProfile


@dataclass(frozen=True)
class PlannedConfig:
    """One planner's decision for (model, cluster, batch configuration)."""

    planner: str
    #: contiguous block ranges per stage.
    partition: PartitionScheme
    #: data-parallel replicas of each stage; len == num stages.
    replicas: Tuple[int, ...]
    num_gpus: int
    #: planner wall-clock, seconds (Fig. 12).
    search_seconds: float
    #: the planner's own objective value (its internal estimate).
    predicted: float = 0.0
    notes: str = ""
    #: how replicas consume data: "subbatch" (DAPPLE: every micro-batch is
    #: split across the stage's replicas — errors when replicas > mbs) or
    #: "stream" (Megatron/Piper/AutoPipe: replicas take alternate whole
    #: micro-batches).
    semantics: str = "stream"

    def __post_init__(self) -> None:
        _checks.choice("semantics", self.semantics, SEMANTICS)
        if len(self.replicas) != self.partition.num_stages:
            raise ValueError("one replica count per stage required")
        if any(r <= 0 for r in self.replicas):
            raise ValueError("replica counts must be positive")
        if sum(self.replicas) != self.num_gpus:
            raise ValueError(
                f"stage replicas {self.replicas} use {sum(self.replicas)} "
                f"GPUs, cluster has {self.num_gpus}"
            )

    @property
    def num_stages(self) -> int:
        return self.partition.num_stages

    @property
    def uniform_dp(self) -> Optional[int]:
        """The common replica width, or None if stages differ."""
        widths = set(self.replicas)
        return widths.pop() if len(widths) == 1 else None


@dataclass(frozen=True)
class ConfigEvaluation:
    """Executed cost of a planned configuration."""

    config: PlannedConfig
    iteration_seconds: float
    pipeline_seconds: float
    allreduce_seconds: float
    #: per-stage effective busy time of one micro-batch (balance metric).
    stage_seconds: Tuple[float, ...]
    num_micro_batches: int
    oom: bool
    runtime_error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.oom or self.runtime_error is not None


def _scaled(value: float, overhead: float, count: int, fraction: float) -> float:
    """Scale a compute time to a batch fraction, keeping launch overheads."""
    fixed = overhead * count
    return fixed + max(0.0, value - fixed) * fraction


def effective_stage_times(
    profile: ModelProfile,
    partition: PartitionScheme,
    replicas: Sequence[int],
    micro_batch_size: int,
    semantics: str = "stream",
) -> StageTimes:
    """Per-micro-batch effective stage period after replication.

    * ``subbatch`` (DAPPLE): a stage with ``r`` replicas runs sub-batches
      of ``ceil(mbs / r)`` samples; padding makes the effective fraction
      ``>= 1/r`` and kernel launch overheads do not shrink.  Replicated
      stages pay one extra hop per micro-batch for the scatter/gather of
      activations.
    * ``stream`` (Megatron/Piper/AutoPipe): replicas take alternate whole
      micro-batches, so the stage's amortised period is exactly
      ``t_s / r``.
    """
    oh = profile.hardware.kernel_launch_overhead
    fwd: List[float] = []
    bwd: List[float] = []
    for stage, r in zip(partition.stages, replicas):
        f = sum(profile.blocks[i].fwd_time for i in stage)
        b = sum(profile.blocks[i].bwd_time for i in stage)
        if semantics == "stream":
            fwd.append(f / r)
            bwd.append(b / r)
            continue
        r_eff = min(r, micro_batch_size)
        sub = math.ceil(micro_batch_size / r_eff)
        fraction = sub / micro_batch_size
        seq = profile.model.seq_length
        slow = (
            small_batch_slowdown(sub * seq, micro_batch_size * seq)
            if r > 1 else 1.0
        )
        extra = profile.comm_time * fraction if r > 1 else 0.0
        fwd.append(_scaled(f, oh, len(stage), fraction) * slow + extra)
        bwd.append(_scaled(b, oh, len(stage), fraction) * slow + extra)
    return StageTimes(tuple(fwd), tuple(bwd), profile.comm_time)


def evaluate_config(
    profile: ModelProfile,
    config: PlannedConfig,
    global_batch_size: int,
    *,
    comm_mode: str = "edges",
) -> ConfigEvaluation:
    """Execute a planned configuration and measure its iteration time.

    Every stage sees all ``global_batch / mbs`` micro-batches (replicas
    split each micro-batch, they do not shard the stream), so the pipeline
    runs ``m = Gbs / mbs`` micro-batches; gradient allreduce runs per stage
    across its replicas and is charged at the end of the iteration.
    """
    mbs = profile.train.micro_batch_size
    if global_batch_size % mbs != 0:
        raise ValueError("global batch not divisible by micro-batch size")
    m = global_batch_size // mbs

    error = None
    if config.semantics == "subbatch":
        for s, r in enumerate(config.replicas):
            if r > mbs:
                error = (
                    f"stage {s} has {r} replicas, exceeding micro-batch "
                    f"size {mbs}"
                )
                break
    else:
        widths = set(config.replicas)
        if any(m % r or m < r for r in widths):
            error = (
                f"{m} micro-batches do not divide across stream replicas "
                f"{sorted(widths)}"
            )

    dp = config.uniform_dp
    fill_correction = 0.0
    # Per-stage running time of one full micro-batch — the paper's balance
    # metric (Fig. 13) is the std-dev across these, independent of how
    # many replicas share the stage.
    raw_times = effective_stage_times(
        profile, config.partition, (1,) * config.num_stages, mbs, "stream"
    )
    if config.semantics == "stream" and dp is not None and error is None:
        # Megatron-style grid: dp identical replica pipelines, each running
        # m/dp whole micro-batches — every replica pays its own fill/drain.
        times = effective_stage_times(
            profile, config.partition, (1,) * config.num_stages, mbs, "stream"
        )
        sim = PipelineSim(times, m // dp, comm_mode=comm_mode).run()
    else:
        times = effective_stage_times(
            profile, config.partition, config.replicas, mbs, config.semantics
        )
        sim = PipelineSim(times, m, comm_mode=comm_mode).run()
        if config.semantics == "stream":
            # Non-uniform stream replication (Piper): the steady state runs
            # at the amortised t/r period, but the first micro-batch fills
            # and the last drains through ONE replica per stage at full
            # per-stage time — the simulator only charged the amortised
            # period, so add the difference back.
            fill_correction = sum(
                (ff + fb) - (af + ab)
                for ff, fb, af, ab in zip(
                    raw_times.fwd, raw_times.bwd, times.fwd, times.bwd
                )
            )
    reduce_times = []
    for stage, r in zip(config.partition.stages, config.replicas):
        params = sum(profile.blocks[i].params for i in stage)
        reduce_times.append(allreduce_seconds(params, r, profile.hardware))
    reduce_t = max(reduce_times)
    peaks = config_memory(
        profile, config.partition, config.replicas, m, mbs, config.semantics
    )
    oom = bool(over_cap(peaks, profile.hardware.gpu_memory))
    return ConfigEvaluation(
        config=config,
        iteration_seconds=sim.iteration_time + fill_correction + reduce_t,
        pipeline_seconds=sim.iteration_time + fill_correction,
        allreduce_seconds=reduce_t,
        stage_seconds=raw_times.total,
        num_micro_batches=m,
        oom=oom,
        runtime_error=error,
    )
