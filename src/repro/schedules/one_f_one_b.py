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

from typing import List, Sequence, Tuple

import numpy as np

from repro import _checks
from repro.core.partition import PartitionScheme, check_covers
from repro.models.costs import small_batch_slowdown
from repro.profiling.modelconfig import ModelProfile
from repro.schedules.base import (
    OP_B,
    OP_EXCHANGE,
    OP_F,
    OP_RECV,
    OP_SEND,
    OpTable,
    Schedule,
    ScheduleShape,
    Unit,
    full_units,
    message_id,
    op_slot,
    unit_fraction,
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


def stage_costs(
    profile: ModelProfile, partition: PartitionScheme
) -> Tuple[List[_StageCosts], List[float]]:
    """Each stage's :class:`_StageCosts` and static (parameter-state)
    bytes; raises ``ValueError`` unless ``partition`` covers the
    profile's blocks."""
    check_covers(partition, profile)
    costs = [_StageCosts(profile, stage) for stage in partition.stages]
    bytes_per_param = profile.train.bytes_per_param_state
    return costs, [c.params * bytes_per_param for c in costs]


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
    costs, static = stage_costs(profile, partition)
    shape = ScheduleShape(
        ("1f1b", partition.num_stages, units, eager),
        [[c] for c in costs], profile.boundary_bytes,
    )
    return Schedule.deferred(name, shape, static)


def one_f_one_b(depth: int, units: Sequence[Unit], eager: bool) -> OpTable:
    """The 1F1B order of ``units`` on ``depth`` stages, as an op table.

    Stage ``x`` runs ``w = min(m, depth - 1 - x)`` warmup forwards, ``m -
    w`` steady F/B pairs and ``w`` cooldown backwards.  A fused exchange
    lists its send first.  With ``eager``, a half unit's activation is a
    buffered send instead, and the exchange that would have carried it
    keeps only its other payload.
    """
    n, m = depth, len(units)
    units = tuple(units)
    # Per unit index, padded by one: whether its activation travels eagerly.
    eager_act = np.zeros(m + 1, dtype=bool)
    if eager:
        eager_act[:m] = [u[1] != -1 for u in units]
    x = np.arange(n)[:, None]
    k = np.arange(m)[None, :]
    up, down = x > 0, x < n - 1
    w = np.minimum(m, n - 1 - x)
    s = m - w

    def act(i, src):
        return message_id(0, i, src, m, n)

    def grad(i, src):
        return message_id(1, i, src, m, n)

    def recv_act(mask, i):
        """The receive of unit ``i``'s activation from ``x - 1``."""
        e = eager_act[np.minimum(i, m)]
        return op_slot(
            mask & up, np.where(e, OP_RECV, OP_EXCHANGE), peer=x - 1,
            recv=act(i, x - 1),
        )

    # Warmup forward k: receive its input, run it, send its output.
    warm = k < w
    warmup = [
        recv_act(warm, k),
        op_slot(warm, OP_F, unit=k, phase=0),
        op_slot(
            warm & down, np.where(eager_act[k], OP_SEND, OP_EXCHANGE),
            peer=x + 1, send=act(k, x),
        ),
    ]
    first_steady_input = [recv_act(s > 0, w)]
    # Steady pair k: forward f = w + k, then backward k, each followed by
    # the fused exchange that sends its output and receives the next input.
    f = w + k
    steady_mask = k < s
    f_eager = eager_act[np.minimum(f, m)]
    next_eager = eager_act[np.minimum(f + 1, m)]
    last = k == s - 1
    steady = [
        op_slot(steady_mask, OP_F, unit=f, phase=1),
        op_slot(steady_mask & down & f_eager, OP_SEND, peer=x + 1,
                send=act(f, x)),
        op_slot(steady_mask & down, OP_EXCHANGE, peer=x + 1,
                send=np.where(f_eager, -1, act(f, x)), recv=grad(k, x + 1)),
        op_slot(steady_mask, OP_B, unit=k, phase=1),
        op_slot(steady_mask & up, OP_EXCHANGE, peer=x - 1, send=grad(k, x),
                recv=np.where(last | next_eager, -1, act(f + 1, x - 1))),
        op_slot(steady_mask & up & ~last & next_eager, OP_RECV, peer=x - 1,
                recv=act(f + 1, x - 1)),
    ]
    # Cooldown backward k: receive its gradient, run it, send its own.
    cooldown_mask = k >= s
    cooldown = [
        op_slot(cooldown_mask & down, OP_EXCHANGE, peer=x + 1,
                recv=grad(k, x + 1)),
        op_slot(cooldown_mask, OP_B, unit=k, phase=2),
        op_slot(cooldown_mask & up, OP_EXCHANGE, peer=x - 1,
                send=grad(k, x)),
    ]
    return OpTable.from_sections(n, units, n, [
        (m, warmup), (1, first_steady_input), (m, steady), (m, cooldown),
    ])


def build_1f1b(
    profile: ModelProfile,
    partition: PartitionScheme,
    num_micro_batches: int,
    *,
    name: str = "1f1b",
) -> Schedule:
    """The plain Megatron 1F1B schedule over whole micro-batches."""
    m = _checks.count("num_micro_batches", num_micro_batches)
    return unit_schedule(
        profile, partition, tuple(full_units(m)), name=name,
        eager_halves=False,
    )
