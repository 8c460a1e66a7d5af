"""Analytic per-device peak memory: the one model every caller shares.

:meth:`MemoryTable.peak` is ``static + in_flight * (stash * fraction) +
workspace * fraction``.  ``static`` is ``params *
TrainConfig.bytes_per_param_state``; with activation checkpointing each
in-flight micro-batch stashes one input per block — ``min(m, n - stage)``
under 1F1B (``ceil(m / r)`` for a stream replica), ``m`` under GPipe, and
on an interleaved device its warmup forwards plus one, summed per chunk (the
memory that makes it OOM at large micro-batches, paper Fig. 14(a));
``workspace`` is the largest transient of any block; ``fraction`` is a
sub-batch replica's ``ceil(mbs / r) / mbs`` share.  A stage fits when
``peak <= cap`` (:func:`over_cap`).

Callers: :func:`stage_memory`, :func:`pipeline_fits` and
:func:`interleaved_stage_memory`; the Planner's ``memory_cap`` filter and
repaired seed, over its granularity units; :func:`config_memory`, behind
every baseline's ``evaluate_config`` OOM flag and AutoPipe's depth choice
(:mod:`repro.core.strategy`).  DAPPLE's optimistic ``feasible`` and
Piper's TP-divided ``_StageTables`` are those planners' own accounting
and stay in :mod:`repro.baselines`.  ``tests/parallel/test_memory_model.py``
holds the 1F1B and GPipe peaks bit-identical to the DES's, and the
interleaved within 1%.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Union

from repro.core.partition import PartitionScheme, _check_count, check_covers
from repro.profiling.modelconfig import ModelProfile

#: replica semantics :func:`config_memory` models.
SEMANTICS = ("stream", "subbatch")


class MemoryTable:
    """Per-unit static, stash and workspace bytes of a profile's
    ``units`` (block index groups; default one unit per block)."""

    def __init__(
        self,
        profile: ModelProfile,
        units: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        blocks = profile.blocks
        state = profile.train.bytes_per_param_state
        if units is None:
            self.static = [b.params * state for b in blocks]
            self.stash = [b.stash_bytes for b in blocks]
            self.workspace = [b.workspace_bytes for b in blocks]
            return
        self.static = [sum(blocks[i].params for i in u) * state for u in units]
        self.stash = [sum(blocks[i].stash_bytes for i in u) for u in units]
        self.workspace = [
            max(blocks[i].workspace_bytes for i in u) for u in units
        ]

    def peak(
        self,
        groups: Sequence[slice],
        in_flight: Sequence[int],
        fraction: float = 1.0,
    ) -> float:
        """The one formula: peak bytes of a device holding the unit slices
        ``groups`` (a stage is one; an interleaved device has one per
        chunk) while ``in_flight[g]`` of group ``g`` are stashed, each
        ``fraction`` of a micro-batch.  Sums run left to right."""
        static = stash = 0.0
        workspace = -math.inf
        for g, k in zip(groups, in_flight):
            static += sum(self.static[g])
            stash += k * (sum(self.stash[g]) * fraction)
            workspace = max(workspace, max(self.workspace[g]))
        return static + stash + workspace * fraction

    def stage_peaks(
        self,
        sizes: Sequence[int],
        num_micro_batches: Union[int, Sequence[int]],
        *,
        schedule: str = "1f1b",
        fractions: Optional[Sequence[float]] = None,
    ) -> List[float]:
        """Peak bytes of each contiguous stage of ``sizes`` units under
        "1f1b" or "gpipe"; ``num_micro_batches`` may be per stage (a
        stream replica's count), ``fractions`` default to 1."""
        if schedule not in ("1f1b", "gpipe"):
            raise ValueError(f"unknown schedule {schedule!r}")
        n = len(sizes)
        if isinstance(num_micro_batches, int):
            num_micro_batches = (num_micro_batches,) * n
        out: List[float] = []
        pos = 0
        for s, size in enumerate(sizes):
            m = num_micro_batches[s]
            k = m if schedule == "gpipe" else min(m, n - s)
            f = 1.0 if fractions is None else fractions[s]
            out.append(self.peak([slice(pos, pos + size)], [k], f))
            pos += size
        return out


def over_cap(peaks: Sequence[float], cap: float) -> List[int]:
    """Stages whose peak exceeds ``cap``: a stage fits when ``peak <= cap``."""
    return [s for s, peak in enumerate(peaks) if peak > cap]


def _check_stage(stage, num_stages: int) -> int:
    stage = _check_count("stage", stage, 0)
    if stage >= num_stages:
        raise ValueError(f"stage {stage} out of range for {num_stages} stages")
    return stage


def stage_memory(
    profile: ModelProfile,
    partition: PartitionScheme,
    stage: int,
    num_micro_batches: int,
    *,
    schedule: str = "1f1b",
) -> float:
    """Predicted peak bytes of one pipeline stage ("1f1b" or "gpipe")."""
    stage = _check_stage(stage, partition.num_stages)
    check_covers(partition, profile)
    m = _check_count("num_micro_batches", num_micro_batches)
    peaks = MemoryTable(profile).stage_peaks(
        partition.sizes, m, schedule=schedule
    )
    return peaks[stage]


def interleaved_stage_memory(
    profile: ModelProfile,
    chunk_blocks: Sequence[Sequence[int]],
    stage: int,
    num_stages: int,
    num_micro_batches: int,
) -> float:
    """Predicted peak bytes of one device under the interleaved schedule.

    ``chunk_blocks`` are the v model chunks resident on this device.  At
    its peak it stashes its first warmup-plus-one forwards (all ``m v``
    when ``m == n``), which run ``n`` micro-batches per chunk in turn.
    """
    v = len(chunk_blocks)
    if v == 0:
        raise ValueError("a device needs at least one chunk")
    m = _check_count("num_micro_batches", num_micro_batches)
    n = _check_count("num_stages", num_stages)
    stage = _check_stage(stage, n)
    units = m * v if m == n else min(m * v, 2 * (n - stage - 1) + (v - 1) * n + 1)
    rounds, rest = divmod(units, n * v)
    return MemoryTable(profile, chunk_blocks).peak(
        [slice(c, c + 1) for c in range(v)],
        [rounds * n + min(n, max(0, rest - c * n)) for c in range(v)],
    )


def pipeline_fits(
    profile: ModelProfile,
    partition: PartitionScheme,
    num_micro_batches: int,
    *,
    schedule: str = "1f1b",
) -> List[int]:
    """Stages predicted to exceed GPU memory (empty list = the plan fits)."""
    peaks = [
        stage_memory(profile, partition, s, num_micro_batches,
                     schedule=schedule)
        for s in range(partition.num_stages)
    ]
    return over_cap(peaks, profile.hardware.gpu_memory)


def config_memory(
    profile: ModelProfile,
    partition: PartitionScheme,
    replicas: Sequence[int],
    num_micro_batches: int,
    micro_batch_size: int,
    semantics: str = "stream",
) -> List[float]:
    """Peak bytes per device of each replicated stage under 1F1B: a
    ``stream`` replica runs ``ceil(m / r)`` whole micro-batches, a
    ``subbatch`` one every micro-batch at ``ceil(mbs / r) / mbs``."""
    check_covers(partition, profile)
    m = _check_count("num_micro_batches", num_micro_batches)
    mbs = _check_count("micro_batch_size", micro_batch_size)
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}")
    if len(replicas) != partition.num_stages:
        raise ValueError(
            f"replicas has {len(replicas)} entries for "
            f"{partition.num_stages} stages"
        )
    rs = [_check_count("replicas", r) for r in replicas]
    if semantics == "stream":
        return MemoryTable(profile).stage_peaks(
            partition.sizes, [math.ceil(m / r) for r in rs]
        )
    return MemoryTable(profile).stage_peaks(
        partition.sizes, m,
        fractions=[math.ceil(mbs / min(r, mbs)) / mbs for r in rs],
    )
