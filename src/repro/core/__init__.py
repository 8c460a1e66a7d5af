"""AutoPipe core: the paper's Planner (simulator + partitioner) and Slicer."""

from repro.core.analytic_sim import (
    PipelineSim,
    PipelineSimBatch,
    PrefixState,
    SimResult,
    SuffixSimBatch,
    simulate_partition,
)
from repro.core.autopipe import AutoPipeSolution, autopipe_plan
from repro.core.balance_dp import (
    BalanceTable,
    balanced_partition,
    min_max_partition,
)
from repro.core.exhaustive import ExhaustiveResult, exhaustive_partition
from repro.core.partition import PartitionScheme, StageTimes, stage_times
from repro.core.planner import (
    PlannerResult,
    SimCache,
    plan_partition,
)
from repro.core.slicer import SlicePlan, solve_slice_count
from repro.core.strategy import (
    AutotuneCandidate,
    AutotuneResult,
    autopipe_config,
    autotune_config,
)

__all__ = [
    "PipelineSim",
    "PipelineSimBatch",
    "PrefixState",
    "SimResult",
    "SuffixSimBatch",
    "simulate_partition",
    "AutoPipeSolution",
    "autopipe_plan",
    "BalanceTable",
    "balanced_partition",
    "min_max_partition",
    "ExhaustiveResult",
    "exhaustive_partition",
    "PartitionScheme",
    "StageTimes",
    "stage_times",
    "PlannerResult",
    "SimCache",
    "plan_partition",
    "SlicePlan",
    "solve_slice_count",
    "AutotuneCandidate",
    "AutotuneResult",
    "autopipe_config",
    "autotune_config",
]
