"""Analytic per-device peak memory: the one model every caller shares.

:meth:`MemoryTable.peak` is ``static + in_flight * (stash * fraction) +
workspace * fraction``.  ``static`` is ``params *
TrainConfig.bytes_per_param_state``; with activation checkpointing each
in-flight micro-batch stashes one input per block — ``min(m, n - stage)``
under 1F1B (``ceil(m / r)`` for a stream replica) and ``m`` under GPipe;
``workspace`` is the largest transient of any block; ``fraction`` is a
sub-batch replica's ``ceil(mbs / r) / mbs`` share.  A stage fits when
``peak <= cap`` (:func:`over_cap`).  An interleaved device's chunks stash
unequal bytes and its peak can fall after its first warmup window, so
:func:`interleaved_stage_memory` replays the device's op order over the
same per-chunk tables instead (the memory that makes it OOM at large
micro-batches, paper Fig. 14(a)).

Callers: :func:`stage_memory`, :func:`pipeline_fits` and
:func:`interleaved_stage_memory`; the Planner's ``memory_cap`` filter and
repaired seed, over its granularity units, which is also the one test of
whether a pipeline depth fits in AutoPipe's depth choice and the
autotuner (:mod:`repro.core.strategy`); :func:`config_memory`, behind
every baseline's ``evaluate_config`` OOM flag and the one-stage and
oracle-argmin checks of :mod:`repro.core.strategy`.  DAPPLE's optimistic ``feasible`` and Piper's TP-divided
``_StageTables`` are those planners' own accounting and stay in
:mod:`repro.baselines`.  ``tests/parallel/test_memory_model.py`` holds
the 1F1B, GPipe and interleaved peaks bit-identical to the DES's on
random integral-byte profiles, and the interleaved within 1% on the zoo.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, Union

from repro import _checks
from repro.core.partition import PartitionScheme, check_covers
from repro.profiling.modelconfig import ModelProfile
from repro.schedules.base import OP_B, OP_F
from repro.schedules.interleaved import interleaved

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
        _checks.choice("schedule", schedule, ("1f1b", "gpipe"))
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
    stage = _checks.count("stage", stage, 0)
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
    m = _checks.count("num_micro_batches", num_micro_batches)
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

    ``chunk_blocks`` are the v model chunks resident on this device.  The
    device's forwards and backwards are replayed in the schedule's own
    order (:func:`repro.schedules.interleaved.interleaved`) on the
    engine's ledger: a forward stashes its chunk's bytes, a backward
    frees them, and each pass peaks at the held bytes plus its chunk's
    workspace.  A chunk that stashes more than the first can peak in the
    steady state, after the first warmup window.
    """
    v = len(chunk_blocks)
    if v == 0:
        raise ValueError("a device needs at least one chunk")
    m = _checks.count("num_micro_batches", num_micro_batches)
    n = _checks.count("num_stages", num_stages)
    stage = _check_stage(stage, n)
    table = MemoryTable(profile, chunk_blocks)
    ops = interleaved(n, m, v)
    mine = (ops.dev == stage) & ((ops.kind == OP_F) | (ops.kind == OP_B))
    held = peak = 0.0
    for forward, chunk in zip(
        (ops.kind[mine] == OP_F).tolist(), ops.chunk[mine].tolist()
    ):
        if forward:
            held += table.stash[chunk]
        if held + table.workspace[chunk] > peak:
            peak = held + table.workspace[chunk]
        if not forward:
            held -= table.stash[chunk]
    static = 0.0
    for unit_static in table.static:  # left to right, as ``peak`` sums
        static += unit_static
    return static + peak


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


def check_config(
    profile: ModelProfile,
    partition: PartitionScheme,
    replicas: Sequence[int],
    num_micro_batches: int,
    micro_batch_size: int,
    semantics: str = "stream",
) -> Tuple[int, int, List[int]]:
    """:func:`config_memory`'s input checks; returns ``m``, ``mbs`` and
    the replica counts as ints."""
    check_covers(partition, profile)
    m = _checks.count("num_micro_batches", num_micro_batches)
    mbs = _checks.count("micro_batch_size", micro_batch_size)
    _checks.choice("semantics", semantics, SEMANTICS)
    if len(replicas) != partition.num_stages:
        raise ValueError(
            f"replicas has {len(replicas)} entries for "
            f"{partition.num_stages} stages"
        )
    return m, mbs, [_checks.count("replicas", r) for r in replicas]


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
    m, mbs, rs = check_config(
        profile, partition, replicas, num_micro_batches, micro_batch_size,
        semantics,
    )
    if semantics == "stream":
        return MemoryTable(profile).stage_peaks(
            partition.sizes, [math.ceil(m / r) for r in rs]
        )
    return MemoryTable(profile).stage_peaks(
        partition.sizes, m,
        fractions=[math.ceil(mbs / min(r, mbs)) / mbs for r in rs],
    )
