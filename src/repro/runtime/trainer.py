"""Execute one training iteration of a planned pipeline on the DES.

``run_pipeline`` executes just the pipeline schedule; ``run_iteration``
adds the per-iteration costs outside the pipeline — the data-parallel
gradient allreduce (per-stage groups run concurrently, so the slowest
group counts) and the optimizer step — which scale the Gbs columns of
Tables III/IV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.partition import PartitionScheme, stage_params
from repro.core.slicer import SlicePlan
from repro.hardware.cluster import Cluster
from repro.parallel.data_parallel import allreduce_seconds
from repro.profiling.modelconfig import ModelProfile
from repro.schedules.base import Schedule, check_micro_batches
from repro.schedules.gpipe import build_gpipe
from repro.schedules.one_f_one_b import build_1f1b
from repro.schedules.sliced import build_sliced
from repro.sim.engine import Engine, ExecutionResult
from repro.sim.graph_exec import execute_fast

#: executors by name.  ``"graph"`` is the compiled static-graph fast
#: path (with its own engine fallback for graphs the compiler rejects),
#: ``"event"`` the per-op DES.
EXECUTORS = ("graph", "event")


@dataclass(frozen=True)
class IterationResult:
    """End-to-end timing of one training iteration."""

    schedule_name: str
    pipeline_seconds: float
    allreduce_seconds: float
    optimizer_seconds: float
    startup_overhead: float
    execution: ExecutionResult
    data_parallel: int
    num_micro_batches: int

    @property
    def iteration_seconds(self) -> float:
        return self.pipeline_seconds + self.allreduce_seconds + self.optimizer_seconds

    @property
    def oom(self) -> bool:
        return self.execution.oom


def build_schedule(
    profile: ModelProfile,
    partition: PartitionScheme,
    num_micro_batches: int,
    schedule: str = "1f1b",
    slice_plan: Optional[SlicePlan] = None,
) -> Schedule:
    """Dispatch to the named schedule builder."""
    num_micro_batches = check_micro_batches(num_micro_batches)
    if schedule == "1f1b":
        return build_1f1b(profile, partition, num_micro_batches)
    if schedule == "gpipe":
        return build_gpipe(profile, partition, num_micro_batches)
    if schedule == "sliced":
        if slice_plan is None:
            raise ValueError("the sliced schedule needs a SlicePlan")
        if slice_plan.num_micro_batches != num_micro_batches:
            raise ValueError(
                f"slice plan covers {slice_plan.num_micro_batches} "
                f"micro-batches, run uses {num_micro_batches}"
            )
        return build_sliced(profile, partition, slice_plan)
    raise ValueError(f"unknown schedule {schedule!r}")


def run_pipeline(
    profile: ModelProfile,
    partition: PartitionScheme,
    num_micro_batches: int,
    *,
    schedule: str = "1f1b",
    slice_plan: Optional[SlicePlan] = None,
    cluster: Optional[Cluster] = None,
    executor: Optional[str] = None,
) -> ExecutionResult:
    """Execute the pipeline portion of one iteration on the DES.

    ``executor`` selects the substrate (``None`` means ``"graph"``):
    ``"graph"`` runs the compiled static-graph fast path (bit-identical
    to the event engine, with an automatic fallback for schedules the
    compiler rejects); ``"event"`` forces the per-op event loop — useful when
    stepping through a run or comparing executors.
    """
    if cluster is None:
        cluster = Cluster(profile.hardware)
    built = build_schedule(profile, partition, num_micro_batches, schedule, slice_plan)
    devices = cluster.pipeline_devices(partition.num_stages)
    if executor is None:
        executor = "graph"
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r} (choose from {EXECUTORS})"
        )
    if executor == "graph":
        return execute_fast(built, cluster, device_map=devices)
    return Engine(built, cluster, device_map=devices).run()


def _optimizer_seconds(profile: ModelProfile, partition: PartitionScheme) -> float:
    """Adam step of the heaviest stage: memory-bound over the state bytes."""
    heaviest = max(stage_params(partition, profile))
    bytes_touched = heaviest * profile.train.bytes_per_param_state * 2  # r+w
    return bytes_touched / profile.hardware.effective_memory_bandwidth


def run_iteration(
    profile: ModelProfile,
    partition: PartitionScheme,
    num_micro_batches: int,
    data_parallel: int = 1,
    *,
    schedule: str = "1f1b",
    slice_plan: Optional[SlicePlan] = None,
    cluster: Optional[Cluster] = None,
) -> IterationResult:
    """Pipeline + gradient allreduce + optimizer step for one iteration."""
    execution = run_pipeline(
        profile, partition, num_micro_batches,
        schedule=schedule, slice_plan=slice_plan, cluster=cluster,
    )
    params = stage_params(partition, profile)
    reduce_time = max(
        allreduce_seconds(p, data_parallel, profile.hardware) for p in params
    )
    last = partition.num_stages - 1
    return IterationResult(
        schedule_name=execution.schedule_name,
        pipeline_seconds=execution.iteration_time,
        allreduce_seconds=reduce_time,
        optimizer_seconds=_optimizer_seconds(profile, partition),
        startup_overhead=execution.first_forward_start(last),
        execution=execution,
        data_parallel=data_parallel,
        num_micro_batches=num_micro_batches,
    )
