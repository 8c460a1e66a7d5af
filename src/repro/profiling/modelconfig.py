"""The "model configs" data structures.

The paper's AutoPipe consumes "model configs" — per-block runtime statistics
collected offline in minutes (Section III-A).  :class:`ModelProfile` is that
artifact: one :class:`BlockProfile` per model block with measured forward /
backward times and memory footprints, plus the scalar stage-to-stage
communication cost ``Comm`` used by the recurrence simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro import _checks
from repro.config import HardwareConfig, ModelConfig, TrainConfig
from repro.models.blocks import Block

_INF = math.inf


@dataclass(frozen=True)
class BlockProfile:
    """Runtime statistics of one block for one micro-batch."""

    block: Block
    #: forward time, seconds.
    fwd_time: float
    #: backward time, seconds.  Includes the checkpoint recompute forward
    #: when activation checkpointing is enabled in the profiled config.
    bwd_time: float
    params: float
    activation_out_bytes: float
    stash_bytes: float
    workspace_bytes: float

    def __post_init__(self) -> None:
        # A model set-up builds thousands of these, so fields that are
        # all plain floats take one chained compare each (NaN fails every
        # one); anything else, a bool included, goes to the full check.
        f, b, p, a, s, w = (
            self.fwd_time, self.bwd_time, self.params,
            self.activation_out_bytes, self.stash_bytes, self.workspace_bytes,
        )
        if not (
            float is type(f) is type(b) is type(p) is type(a) is type(s)
            is type(w)
            and 0.0 <= f < _INF and 0.0 <= b < _INF and 0.0 <= p < _INF
            and 0.0 <= a < _INF and 0.0 <= s < _INF and 0.0 <= w < _INF
        ):
            for name in (
                "fwd_time", "bwd_time", "params", "activation_out_bytes",
                "stash_bytes", "workspace_bytes",
            ):
                _checks.real(f"BlockProfile.{name}", getattr(self, name))

    @property
    def total_time(self) -> float:
        return self.fwd_time + self.bwd_time


@dataclass(frozen=True)
class ModelProfile:
    """All statistics the planners need about one (model, hardware, mbs)."""

    model: ModelConfig
    hardware: HardwareConfig
    train: TrainConfig
    blocks: Tuple[BlockProfile, ...] = field(default_factory=tuple)
    #: the paper's scalar `Comm`: one stage-to-stage activation transfer.
    comm_time: float = 0.0
    #: bytes of the hidden-state tensor crossing any stage boundary.
    boundary_bytes: float = 0.0

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("a ModelProfile needs at least one block")
        _checks.real("ModelProfile.comm_time", self.comm_time)
        _checks.real("ModelProfile.boundary_bytes", self.boundary_bytes)
        for i, bp in enumerate(self.blocks):
            if bp.block.index != i:
                raise ValueError(
                    f"block profiles must be ordered by index; "
                    f"position {i} holds block {bp.block.index}"
                )

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def fwd_times(self) -> List[float]:
        return [bp.fwd_time for bp in self.blocks]

    def bwd_times(self) -> List[float]:
        return [bp.bwd_time for bp in self.blocks]

    def block_times(self) -> List[float]:
        """``f_i + b_i`` per block — Algorithm 1's load metric."""
        return [bp.total_time for bp in self.blocks]

    def slice_profiles(self, indices: Sequence[int]) -> List[BlockProfile]:
        return [self.blocks[i] for i in indices]

    def total_fwd_time(self) -> float:
        return sum(bp.fwd_time for bp in self.blocks)

    def total_time(self) -> float:
        return sum(bp.total_time for bp in self.blocks)

    def total_params(self) -> float:
        return sum(bp.params for bp in self.blocks)

    def with_micro_batch_fraction(self, fraction: float) -> "ModelProfile":
        """Scale compute-bound times for a sliced (fractional) micro-batch.

        Used by the Slicer and by DES execution of half micro-batches: GEMM
        times scale close to linearly in batch for these shapes; fixed
        kernel overhead is intentionally kept (it is why slicing *every*
        micro-batch would be a loss).
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        overhead = self.hardware.kernel_launch_overhead
        scaled = tuple(
            BlockProfile(
                block=bp.block,
                fwd_time=overhead + (bp.fwd_time - overhead) * fraction,
                bwd_time=overhead + (bp.bwd_time - overhead) * fraction,
                params=bp.params,
                activation_out_bytes=bp.activation_out_bytes * fraction,
                stash_bytes=bp.stash_bytes * fraction,
                workspace_bytes=bp.workspace_bytes * fraction,
            )
            for bp in self.blocks
        )
        comm = self.comm_time * fraction
        return ModelProfile(
            model=self.model,
            hardware=self.hardware,
            train=self.train,
            blocks=scaled,
            comm_time=comm,
            boundary_bytes=self.boundary_bytes * fraction,
        )
