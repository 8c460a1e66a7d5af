"""Pipeline partition schemes.

A :class:`PartitionScheme` assigns the model's block sequence to ``p``
contiguous, non-empty pipeline stages.  It is the unit of currency between
Algorithm 1, the heuristic partitioner, the analytic simulator, the Slicer
and the schedule builders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.profiling.modelconfig import ModelProfile


@dataclass(frozen=True)
class PartitionScheme:
    """Contiguous assignment of block indices to pipeline stages."""

    #: per-stage tuples of block indices; concatenation must be 0..n-1.
    stages: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a partition needs at least one stage")
        flat: List[int] = []
        for s, stage in enumerate(self.stages):
            if not stage:
                raise ValueError(f"stage {s} is empty")
            flat.extend(stage)
        if flat != list(range(len(flat))):
            raise ValueError(
                "stages must be contiguous and cover all blocks exactly once"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "PartitionScheme":
        """Build from per-stage block counts, e.g. ``[3, 2, 2]``."""
        stages: List[Tuple[int, ...]] = []
        start = 0
        for size in sizes:
            if size <= 0:
                raise ValueError(f"stage sizes must be positive, got {size}")
            stages.append(tuple(range(start, start + size)))
            start += size
        return cls(tuple(stages))

    @classmethod
    def from_boundaries(cls, num_blocks: int, cuts: Sequence[int]) -> "PartitionScheme":
        """Build from cut positions: stage ``s`` holds ``[cuts[s], cuts[s+1])``.

        ``cuts`` excludes the implicit leading 0 and trailing ``num_blocks``.
        """
        edges = [0, *cuts, num_blocks]
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"cuts {cuts!r} must be strictly increasing in (0, {num_blocks})")
        return cls(tuple(tuple(range(a, b)) for a, b in zip(edges, edges[1:])))

    # -- structure ---------------------------------------------------------

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def num_blocks(self) -> int:
        return sum(len(s) for s in self.stages)

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(s) for s in self.stages)

    @property
    def boundaries(self) -> Tuple[int, ...]:
        """Cut positions (first block index of stages 1..p-1)."""
        return tuple(stage[0] for stage in self.stages[1:])

    def stage_of_block(self, block_index: int) -> int:
        for s, stage in enumerate(self.stages):
            if stage[0] <= block_index <= stage[-1]:
                return s
        raise ValueError(f"block {block_index} not in partition")

    # -- derived views -----------------------------------------------------

    def layers_per_stage(self, profile: ModelProfile) -> Tuple[float, ...]:
        """Transformer layers per stage in Table II units (halves allowed)."""
        return tuple(
            sum(profile.blocks[i].block.layer_fraction for i in stage)
            for stage in self.stages
        )

    def describe(self, profile: ModelProfile) -> str:
        parts = []
        for s, stage in enumerate(self.stages):
            labels = ",".join(profile.blocks[i].block.label for i in stage)
            parts.append(f"stage{s}[{labels}]")
        return " | ".join(parts)


@dataclass(frozen=True)
class StageTimes:
    """Aggregated per-stage forward/backward durations for one micro-batch.

    This plus the scalar ``comm`` is everything the paper's recurrences and
    Algorithm 2 consume.
    """

    fwd: Tuple[float, ...]
    bwd: Tuple[float, ...]
    comm: float

    def __post_init__(self) -> None:
        if len(self.fwd) != len(self.bwd):
            raise ValueError("fwd/bwd length mismatch")
        if not self.fwd:
            raise ValueError("need at least one stage")
        # Checked before the sign test: min() is order-dependent on NaN,
        # and the simulators' max/add recurrences assume finite times.
        for name, values in (("fwd", self.fwd), ("bwd", self.bwd)):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} times must be finite, got {values!r}")
        if not math.isfinite(self.comm):
            raise ValueError(f"comm time must be finite, got {self.comm!r}")
        if min(self.fwd) < 0 or min(self.bwd) < 0 or self.comm < 0:
            raise ValueError("times must be non-negative")

    @property
    def num_stages(self) -> int:
        return len(self.fwd)

    @property
    def total(self) -> Tuple[float, ...]:
        return tuple(f + b for f, b in zip(self.fwd, self.bwd))

    def balance_std(self) -> float:
        """Std-dev of per-stage total time: the paper's balance metric (Fig 13)."""
        return float(np.std(np.asarray(self.total)))


def _check_count(name: str, value, minimum: int = 1) -> int:
    """``value`` as an ``int``: a bool or non-integral value (numpy
    integers pass) raises ``TypeError``, one below ``minimum``
    ``ValueError``, both naming the argument ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _check_bool(name: str, value) -> bool:
    """``value`` as a ``bool``: anything else (``numpy.bool_`` passes)
    raises ``TypeError`` naming the argument ``name``, so a string such
    as ``"False"`` cannot switch a knob on by its truthiness."""
    if not isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def check_covers(partition: PartitionScheme, profile: ModelProfile) -> None:
    """Raise ``ValueError`` unless ``partition`` covers exactly the
    profile's blocks."""
    if partition.num_blocks != profile.num_blocks:
        raise ValueError(
            f"partition covers {partition.num_blocks} blocks, profile has "
            f"{profile.num_blocks}"
        )


def stage_times(partition: PartitionScheme, profile: ModelProfile) -> StageTimes:
    """Aggregate the profile's block times into per-stage ``f_x`` / ``b_x``."""
    check_covers(partition, profile)
    fwd = tuple(
        sum(profile.blocks[i].fwd_time for i in stage) for stage in partition.stages
    )
    bwd = tuple(
        sum(profile.blocks[i].bwd_time for i in stage) for stage in partition.stages
    )
    return StageTimes(fwd=fwd, bwd=bwd, comm=profile.comm_time)


def stage_params(partition: PartitionScheme, profile: ModelProfile) -> Tuple[float, ...]:
    """Trainable parameters per stage (drives memory and DP allreduce)."""
    return tuple(
        sum(profile.blocks[i].params for i in stage) for stage in partition.stages
    )


def shift_repair(
    sizes: Sequence[int],
    peaks: Callable[[Tuple[int, ...]], Sequence[float]],
    cap: float,
    moves: int,
) -> Optional[Tuple[int, ...]]:
    """Shift units off the most loaded stage until every peak fits ``cap``.

    ``peaks(sizes)`` gives the per-stage peak memory of a partition in
    group sizes.  Each move takes one unit from the worst stage and gives
    it to its lighter neighbour (the one with the lower peak).  Returns
    the first sizes that fit, or ``None`` when the worst stage is down to
    one unit, has no lighter neighbour, or ``moves`` moves did not help.
    """
    current = list(sizes)
    for _ in range(moves):
        stage_peaks = peaks(tuple(current))
        worst = max(range(len(stage_peaks)), key=lambda s: stage_peaks[s])
        if stage_peaks[worst] <= cap:
            return tuple(current)
        if current[worst] <= 1:
            return None
        neighbours = [
            s for s in (worst - 1, worst + 1)
            if 0 <= s < len(current) and stage_peaks[s] < stage_peaks[worst]
        ]
        if not neighbours:
            return None
        target = min(neighbours, key=lambda s: stage_peaks[s])
        current[worst] -= 1
        current[target] += 1
    return None
