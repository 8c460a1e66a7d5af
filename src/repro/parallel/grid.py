"""DP x PP process grids, Megatron style.

AutoPipe composes data and pipeline parallelism "in the way Megatron-LM
uses" (Section IV-D): every pipeline stage has the same data-parallel
width, so a cluster of ``G`` GPUs runs ``dp`` identical pipeline replicas
of depth ``pp`` with ``dp * pp == G``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.config import TrainConfig


@dataclass(frozen=True)
class ParallelLayout:
    """One (data-parallel width, pipeline depth) assignment of a cluster."""

    num_gpus: int
    pipeline_stages: int

    def __post_init__(self) -> None:
        if self.pipeline_stages <= 0 or self.num_gpus <= 0:
            raise ValueError("layout dimensions must be positive")
        if self.num_gpus % self.pipeline_stages != 0:
            raise ValueError(
                f"{self.num_gpus} GPUs not divisible into "
                f"{self.pipeline_stages}-stage pipelines"
            )

    @property
    def data_parallel(self) -> int:
        return self.num_gpus // self.pipeline_stages

    def micro_batches(self, train: TrainConfig) -> int:
        """Micro-batches each pipeline replica runs per iteration."""
        return train.micro_batches_per_replica(self.data_parallel)

    def slice_candidates(self, train: TrainConfig) -> range:
        """Admissible Slicer counts for this layout's replicas.

        Algorithm 2 slices at most ``p - 1`` leading micro-batches (the
        warmup depth) and never more than the replica runs; ``0`` is the
        unsliced 1F1B baseline.  The autotuner's third search dimension.
        """
        m = self.micro_batches(train)
        return range(0, min(self.pipeline_stages - 1, m) + 1)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"dp{self.data_parallel}xpp{self.pipeline_stages}"


def layouts_for(num_gpus: int, train: TrainConfig) -> List[ParallelLayout]:
    """All layouts of a cluster compatible with the batch configuration.

    A layout is compatible when the global batch divides evenly into the
    replicas' micro-batches (Megatron requires this).
    """
    out: List[ParallelLayout] = []
    for pp in range(1, num_gpus + 1):
        if num_gpus % pp != 0:
            continue
        layout = ParallelLayout(num_gpus, pp)
        try:
            layout.micro_batches(train)
        except ValueError:
            continue
        out.append(layout)
    return out

