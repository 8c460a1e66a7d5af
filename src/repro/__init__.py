"""AutoPipe (CLUSTER 2022) reproduction.

A pure-Python reproduction of "AutoPipe: A Fast Pipeline Parallelism
Approach with Balanced Partitioning and Micro-batch Slicing" (Liu et al.),
including the Planner (recurrence simulator + heuristic sub-layer
partitioner), the Slicer (Algorithm 2 + sliced 1F1B schedule), a
discrete-event cluster simulator standing in for the paper's 16-GPU
testbed, and the Megatron-LM / DAPPLE / Piper baselines.

Quickstart::

    from repro import autopipe_plan, GPT2_345M, DEFAULT_CLUSTER_HW, TrainConfig

    train = TrainConfig(micro_batch_size=4, global_batch_size=32)
    solution = autopipe_plan(GPT2_345M, DEFAULT_CLUSTER_HW, train,
                             num_stages=4, num_micro_batches=8)
    print(solution.partition.layers_per_stage(solution.profile))
"""

from repro.config import HardwareConfig, ModelConfig, TrainConfig
from repro.core.analytic_sim import PipelineSim, SimResult, simulate_partition
from repro.core.autopipe import AutoPipeSolution, autopipe_plan
from repro.core.balance_dp import (
    BalanceTable,
    balanced_partition,
    min_max_partition,
)
from repro.core.partition import PartitionScheme, StageTimes, stage_times
from repro.core.planner import PlannerResult, plan_partition
from repro.core.slicer import SlicePlan, make_slice_plan, solve_slice_count
from repro.core.strategy import AutotuneResult, autopipe_config, autotune_config
from repro.hardware.cluster import Cluster
from repro.hardware.device import DEFAULT_CLUSTER_HW, rtx3090_cluster
from repro.models.zoo import (
    BERT_LARGE,
    GPT2_1_3B,
    GPT2_345M,
    GPT2_762M,
    MODEL_ZOO,
    get_model,
)
from repro.profiling import BlockProfile, ModelProfile, profile_model
from repro.runtime.trainer import IterationResult, run_iteration, run_pipeline

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "ModelConfig", "HardwareConfig", "TrainConfig",
    # model zoo
    "GPT2_345M", "GPT2_762M", "GPT2_1_3B", "BERT_LARGE", "MODEL_ZOO",
    "get_model",
    # hardware
    "Cluster", "DEFAULT_CLUSTER_HW", "rtx3090_cluster",
    # profiling
    "profile_model", "ModelProfile", "BlockProfile",
    # core
    "PartitionScheme", "StageTimes", "stage_times",
    "BalanceTable", "balanced_partition", "min_max_partition",
    "PipelineSim", "SimResult", "simulate_partition",
    "plan_partition", "PlannerResult",
    "SlicePlan", "make_slice_plan", "solve_slice_count",
    "autopipe_plan", "AutoPipeSolution", "autopipe_config",
    "autotune_config", "AutotuneResult",
    # runtime
    "run_pipeline", "run_iteration", "IterationResult",
]
