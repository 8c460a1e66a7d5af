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

The builder is parameterised by the unit sequence and by an optional
per-unit communication override used by the sliced schedule.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.partition import PartitionScheme
from repro.models.costs import small_batch_slowdown
from repro.profiling.modelconfig import ModelProfile
from repro.schedules.base import (
    CommOp,
    ComputeOp,
    Schedule,
    ScheduleShape,
    Transfer,
    Unit,
    check_micro_batches,
    full_units,
    unit_fraction,
    unit_label,
)

#: hook deciding comm semantics for a unit's activation/gradient transfer;
#: returns True for rendezvous (default) or False for eager/buffered.
RendezvousPolicy = Callable[[str, Unit], bool]


def _always_rendezvous(_kind: str, _unit: Unit) -> bool:
    return True


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


def _act_tag(unit: Unit, x: int) -> str:
    return f"act:{unit_label(unit)}:{x}>{x + 1}"


def _grad_tag(unit: Unit, x: int) -> str:
    return f"grad:{unit_label(unit)}:{x}>{x - 1}"


def build_unit_1f1b(
    profile: ModelProfile,
    partition: PartitionScheme,
    units: Sequence[Unit],
    *,
    name: str = "1f1b",
    rendezvous_policy: RendezvousPolicy = _always_rendezvous,
) -> Schedule:
    """Build a (possibly sliced) 1F1B schedule over an explicit unit list.

    When ``rendezvous_policy`` marks a unit's transfer as eager, the fused
    bidirectional exchange that would carry it is split into independent
    buffered sends/recvs (the Slicer's comm-aggregation semantics).  With
    the default policy the shape key is ``("1f1b", depth, units,
    False)``; a custom policy is opaque, so that schedule has no key and
    always compiles from its programs.
    """
    units = tuple(units)
    if not units:
        raise ValueError("no units to schedule")
    if rendezvous_policy is _always_rendezvous:
        return unit_schedule(
            profile, partition, units, name=name, eager_halves=False
        )
    return _deferred_1f1b(
        profile, partition, units, name, rendezvous_policy, None
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

    def policy(kind: str, unit: Unit) -> bool:
        return not (eager and kind == "act" and unit[1] != -1)

    key = ("1f1b", partition.num_stages, units, eager)
    return _deferred_1f1b(profile, partition, units, name, policy, key)


def _deferred_1f1b(
    profile: ModelProfile,
    partition: PartitionScheme,
    units: Tuple[Unit, ...],
    name: str,
    rendezvous_policy: RendezvousPolicy,
    key: Optional[Tuple],
) -> Schedule:
    costs = [_StageCosts(profile, stage) for stage in partition.stages]
    bbytes = profile.boundary_bytes
    static = [c.params * profile.train.bytes_per_param_state for c in costs]

    def emit() -> List[List[object]]:
        return _emit_1f1b(costs, bbytes, units, rendezvous_policy)

    shape = ScheduleShape(key, [[c] for c in costs], bbytes, emit)
    return Schedule.deferred(name, shape, static)


def _emit_1f1b(
    costs: List[_StageCosts],
    bbytes: float,
    units: Tuple[Unit, ...],
    rendezvous_policy: RendezvousPolicy,
) -> List[List[object]]:
    """The per-device Op programs."""
    n = len(costs)
    m = len(units)

    def act_transfer(unit: Unit, x: int) -> Transfer:
        return Transfer(
            _act_tag(unit, x), x, x + 1, bbytes * unit_fraction(unit)
        )

    def grad_transfer(unit: Unit, x: int) -> Transfer:
        return Transfer(
            _grad_tag(unit, x), x, x - 1, bbytes * unit_fraction(unit)
        )

    def fwd_op(x: int, unit: Unit, phase: str) -> ComputeOp:
        return ComputeOp(
            "F", unit, costs[x].fwd(unit),
            alloc_bytes=costs[x].stash(unit),
            workspace_bytes=costs[x].workspace(unit),
            phase=phase,
        )

    def bwd_op(x: int, unit: Unit, phase: str) -> ComputeOp:
        return ComputeOp(
            "B", unit, costs[x].bwd(unit),
            free_bytes=costs[x].stash(unit),
            workspace_bytes=costs[x].workspace(unit),
            phase=phase,
        )

    def emit_exchange(
        program: List[object], device: int, peer: int,
        transfers: List[Tuple[str, Unit, Transfer]],
    ) -> None:
        """Fuse the given transfers unless any is flagged eager.

        ``transfers`` holds (kind, unit, transfer).  If all are rendezvous,
        one fused CommOp is emitted; otherwise each transfer becomes its
        own CommOp with its own semantics, sends first (so the peer's
        matching recv can always drain), preserving order.
        """
        if not transfers:
            return
        flags = [rendezvous_policy(kind, unit) for kind, unit, _ in transfers]
        if all(flags) and len(transfers) <= 2:
            comm = CommOp(
                device, peer, tuple(t for _, _, t in transfers), rendezvous=True
            )
            program.append(comm)
            return
        for (kind, unit, t), flag in zip(transfers, flags):
            program.append(CommOp(device, peer, (t,), rendezvous=flag))

    programs: List[List[object]] = []
    for x in range(n):
        w = min(m, n - 1 - x)
        s = m - w
        program: List[object] = []
        # Warmup forwards.
        for k in range(w):
            u = units[k]
            if x > 0:
                emit_exchange(program, x, x - 1, [("act", u, act_transfer(u, x - 1))])
            program.append(fwd_op(x, u, "warmup"))
            if x < n - 1:
                emit_exchange(program, x, x + 1, [("act", u, act_transfer(u, x))])
        # First steady input.
        if s > 0 and x > 0:
            u = units[w]
            emit_exchange(program, x, x - 1, [("act", u, act_transfer(u, x - 1))])
        # Steady 1F1B.
        for j in range(s):
            fu = units[w + j]
            bu = units[j]
            program.append(fwd_op(x, fu, "steady"))
            if x < n - 1:
                emit_exchange(
                    program, x, x + 1,
                    [("act", fu, act_transfer(fu, x)),
                     ("grad", bu, grad_transfer(bu, x + 1))],
                )
            program.append(bwd_op(x, bu, "steady"))
            if x > 0:
                pairs = [("grad", bu, grad_transfer(bu, x))]
                if j < s - 1:
                    nxt = units[w + j + 1]
                    pairs.append(("act", nxt, act_transfer(nxt, x - 1)))
                emit_exchange(program, x, x - 1, pairs)
        # Cooldown backwards.
        for k in range(s, m):
            u = units[k]
            if x < n - 1:
                emit_exchange(program, x, x + 1, [("grad", u, grad_transfer(u, x + 1))])
            program.append(bwd_op(x, u, "cooldown"))
            if x > 0:
                emit_exchange(program, x, x - 1, [("grad", u, grad_transfer(u, x))])
        programs.append(program)
    return programs


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
