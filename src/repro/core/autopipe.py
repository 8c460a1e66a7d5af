"""AutoPipe end-to-end: model configs -> Planner -> Slicer -> solution.

This is the integration layer of paper Fig. 2.  :func:`autopipe_plan`
profiles the model offline, runs the Planner for a balanced partition,
then runs the Slicer against the planned partition.  The resulting
:class:`AutoPipeSolution` is what the distributed runtime (our DES-backed
:mod:`repro.runtime.trainer`) executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import HardwareConfig, ModelConfig, TrainConfig
from repro.core.partition import PartitionScheme, StageTimes, stage_times
from repro.core.planner import PlannerResult, plan_partition
from repro.core.slicer import SlicePlan, make_slice_plan
from repro.profiling import ModelProfile, profile_model


@dataclass(frozen=True)
class AutoPipeSolution:
    """Everything needed to execute one AutoPipe-planned training iteration."""

    profile: ModelProfile
    partition: PartitionScheme
    times: StageTimes
    planner: PlannerResult
    #: None when the Slicer is disabled (Planner-only ablation).
    slice_plan: Optional[SlicePlan]
    num_micro_batches: int

    @property
    def num_stages(self) -> int:
        return self.partition.num_stages

    @property
    def predicted_iteration_time(self) -> float:
        return self.planner.iteration_time


def autopipe_plan(
    model: ModelConfig,
    hardware: HardwareConfig,
    train: TrainConfig,
    num_stages: int,
    num_micro_batches: int,
    *,
    enable_slicer: bool = True,
    granularity: str = "sublayer",
    comm_mode: str = "paper",
    profile: Optional[ModelProfile] = None,
) -> AutoPipeSolution:
    """Run the full AutoPipe front-end for one training configuration.

    Pass ``profile`` to reuse previously collected model configs (the
    offline profiling step); otherwise it is generated here.
    """
    if profile is None:
        profile = profile_model(model, hardware, train)
    planner = plan_partition(
        profile,
        num_stages,
        num_micro_batches,
        granularity=granularity,
        comm_mode=comm_mode,
    )
    times = stage_times(planner.partition, profile)
    plan = (
        make_slice_plan(times, num_micro_batches) if enable_slicer else None
    )
    return AutoPipeSolution(
        profile=profile,
        partition=planner.partition,
        times=times,
        planner=planner,
        slice_plan=plan,
        num_micro_batches=num_micro_batches,
    )
