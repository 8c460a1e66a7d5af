"""Megatron-LM's non-interleaved 1F1B schedule.

Per stage ``x`` of ``n`` with ``U`` units (micro-batches, or sliced halves
for the AutoPipe schedule built on top of this module):

* warmup — ``w_x = min(|U|, n-1-x)`` forwards, each bracketed by a
  rendezvous recv from ``x-1`` and send to ``x+1``;
* steady (1F1B) — alternating F/B; communication uses Megatron's fused
  ``send_forward_recv_backward`` / ``send_backward_recv_forward`` exchanges
  so the two directions share one full-duplex rendezvous (this pairing is
  also what makes the schedule deadlock-free);
* cooldown — the remaining backwards with their grad transfers.

:func:`one_f_one_b` is the order, over a unit sequence; with ``eager``
the activation of every half unit travels as a buffered send (the sliced
schedule's aggregation), which splits the fused exchange carrying it.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.partition import PartitionScheme
from repro.models.costs import small_batch_slowdown
from repro.profiling.modelconfig import ModelProfile
from repro.schedules.base import (
    Schedule,
    ScheduleShape,
    Unit,
    check_micro_batches,
    full_units,
    unit_fraction,
    unit_label,
)

class _StageCosts:
    """Per-stage durations and memory for full and half units.

    Half units keep the per-block kernel launch overhead and pay the
    small-batch GEMM efficiency penalty — the reason slicing is a net
    loss on shallow pipelines (paper Fig. 10, depth 2).
    """

    def __init__(self, profile: ModelProfile, blocks: Sequence[int]) -> None:
        oh = profile.hardware.kernel_launch_overhead
        self._oh = oh
        self.fwd_full = sum(profile.blocks[i].fwd_time for i in blocks)
        self.bwd_full = sum(profile.blocks[i].bwd_time for i in blocks)
        self.stash_full = sum(profile.blocks[i].stash_bytes for i in blocks)
        self.workspace_full = max(
            profile.blocks[i].workspace_bytes for i in blocks
        )
        self.num_blocks = len(blocks)
        self.params = sum(profile.blocks[i].params for i in blocks)
        full_tokens = (
            profile.train.micro_batch_size * profile.model.seq_length
        )
        self._half_slowdown = small_batch_slowdown(
            full_tokens / 2.0, full_tokens
        )

    def _partial(self, full: float, frac: float) -> float:
        fixed = self.num_blocks * self._oh
        return fixed + max(0.0, full - fixed) * frac * self._half_slowdown

    def fwd(self, unit: Unit) -> float:
        frac = unit_fraction(unit)
        return self.fwd_full if frac == 1.0 else self._partial(self.fwd_full, frac)

    def bwd(self, unit: Unit) -> float:
        frac = unit_fraction(unit)
        return self.bwd_full if frac == 1.0 else self._partial(self.bwd_full, frac)

    def stash(self, unit: Unit) -> float:
        return self.stash_full * unit_fraction(unit)

    def workspace(self, unit: Unit) -> float:
        return self.workspace_full * unit_fraction(unit)


def build_unit_1f1b(
    profile: ModelProfile,
    partition: PartitionScheme,
    units: Sequence[Unit],
    *,
    name: str = "1f1b",
) -> Schedule:
    """Build a (possibly sliced) 1F1B schedule over an explicit unit list,
    every transfer a rendezvous: shape key ``("1f1b", depth, units,
    False)``."""
    units = tuple(units)
    if not units:
        raise ValueError("no units to schedule")
    return unit_schedule(
        profile, partition, units, name=name, eager_halves=False
    )


def unit_schedule(
    profile: ModelProfile,
    partition: PartitionScheme,
    units: Tuple[Unit, ...],
    *,
    name: str,
    eager_halves: bool,
) -> Schedule:
    """The deferred 1F1B-family schedule of ``units``.

    ``eager_halves`` buffers the activation sends of half units (the
    sliced schedule's aggregation).  The shape key is canonical — a unit
    sequence without halves keys as plain 1F1B whatever the flag — so
    :mod:`repro.sim.slice_eval` can emit the same key for a slice count.
    """
    eager = eager_halves and any(u[1] != -1 for u in units)
    costs = [_StageCosts(profile, stage) for stage in partition.stages]
    static = [c.params * profile.train.bytes_per_param_state for c in costs]
    shape = ScheduleShape(
        ("1f1b", partition.num_stages, units, eager),
        [[c] for c in costs], profile.boundary_bytes,
    )
    return Schedule.deferred(name, shape, static)


def one_f_one_b(sink, depth: int, units: Sequence[Unit], eager: bool) -> None:
    """Drive ``sink`` through the 1F1B order of ``units`` on ``depth``
    stages (the sink protocol: :class:`repro.schedules.base._OpSink`).

    A fused exchange lists its send first.  With ``eager``, a half
    unit's activation is a buffered send instead, and the exchange that
    would have carried it keeps only its other payload.
    """
    n = depth
    m = len(units)
    labels = [unit_label(u) for u in units]

    def act(i: int, src: int) -> Tuple[str, Unit]:
        return f"act:{labels[i]}:{src}>{src + 1}", units[i]

    def grad(i: int, src: int) -> Tuple[str, Unit]:
        return f"grad:{labels[i]}:{src}>{src - 1}", units[i]

    def is_eager(i: int) -> bool:
        return eager and units[i][1] != -1

    for x in range(n):
        sink.device(x)

        def send_act(i: int) -> None:
            if is_eager(i):
                sink.eager(x + 1, True, *act(i, x))
            else:
                sink.exchange(x + 1, act(i, x), None)

        def recv_act(i: int) -> None:
            if is_eager(i):
                sink.eager(x - 1, False, *act(i, x - 1))
            else:
                sink.exchange(x - 1, None, act(i, x - 1))

        w = min(m, n - 1 - x)
        s = m - w
        # Warmup forwards.
        for k in range(w):
            if x > 0:
                recv_act(k)
            sink.compute("F", 0, units[k], "warmup")
            if x < n - 1:
                send_act(k)
        # First steady input.
        if s > 0 and x > 0:
            recv_act(w)
        # Steady 1F1B.
        for j in range(s):
            f = w + j
            sink.compute("F", 0, units[f], "steady")
            if x < n - 1:
                if is_eager(f):
                    send_act(f)
                    sink.exchange(x + 1, None, grad(j, x + 1))
                else:
                    sink.exchange(x + 1, act(f, x), grad(j, x + 1))
            sink.compute("B", 0, units[j], "steady")
            if x > 0:
                if j < s - 1 and not is_eager(f + 1):
                    sink.exchange(x - 1, grad(j, x), act(f + 1, x - 1))
                else:
                    sink.exchange(x - 1, grad(j, x), None)
                    if j < s - 1:
                        recv_act(f + 1)
        # Cooldown backwards.
        for k in range(s, m):
            if x < n - 1:
                sink.exchange(x + 1, None, grad(k, x + 1))
            sink.compute("B", 0, units[k], "cooldown")
            if x > 0:
                sink.exchange(x - 1, grad(k, x), None)


def build_1f1b(
    profile: ModelProfile,
    partition: PartitionScheme,
    num_micro_batches: int,
    *,
    name: str = "1f1b",
) -> Schedule:
    """The plain Megatron 1F1B schedule over whole micro-batches."""
    m = check_micro_batches(num_micro_batches)
    return unit_schedule(
        profile, partition, tuple(full_units(m)), name=name,
        eager_halves=False,
    )
