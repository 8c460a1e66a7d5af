"""Megatron-LM's interleaved 1F1B schedule (the paper's startup baseline).

Each device hosts ``v`` model chunks; virtual stage ``c * n + x`` lives on
device ``x``.  The first micro-batch reaches the end of the model after
traversing chunks of depth ``L / v`` per hop, roughly halving the startup
overhead for ``v = 2`` — at the cost of keeping more activations in flight
(OOM at large micro-batch sizes, Fig. 14(a)) and of two applicability
constraints the paper exploits in Fig. 14(b):

* the transformer layer count must divide evenly into ``n * v`` chunks;
* the micro-batch count must be a multiple of the pipeline depth.

Violations raise :class:`InterleavedInfeasible` (the "X" marks).
The virtual-micro-batch ordering is ported from Megatron-LM's
``forward_backward_pipelining_with_interleaving``.  Communication is
buffered (Megatron posts batched isend/irecv pairs).

Maintenance note: ``repro.sim.walks.interleaved_walk`` emits the
compiled graph of this schedule straight from its shape key on a
template miss, following ``_emit_interleaved`` op for op;
``tests/sim/test_direct_walks.py`` holds the two to the same walk.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.models.blocks import BlockKind
from repro.profiling.modelconfig import ModelProfile
from repro.schedules.base import (
    CommOp,
    ComputeOp,
    Schedule,
    ScheduleShape,
    Transfer,
    check_micro_batches,
)
from repro.schedules.one_f_one_b import _StageCosts


class InterleavedInfeasible(ValueError):
    """The interleaved schedule cannot run this configuration."""


def interleaved_chunks(
    profile: ModelProfile, num_stages: int, num_chunks: int
) -> List[List[List[int]]]:
    """Assign blocks to ``num_stages * num_chunks`` uniform virtual stages.

    Returns ``chunks[device][chunk] -> block indices``.  Transformer layers
    are divided evenly; the embedding joins the first virtual stage and the
    final norm + head join the last (Megatron's pre/post-process).
    """
    if num_chunks < 2:
        raise InterleavedInfeasible("interleaving needs at least 2 chunks")
    layer_ids: List[List[int]] = []
    prefix: List[int] = []
    suffix: List[int] = []
    current: List[int] = []
    for bp in profile.blocks:
        kind = bp.block.kind
        if kind is BlockKind.EMBEDDING:
            prefix.append(bp.block.index)
        elif kind in (BlockKind.FINAL_NORM, BlockKind.LM_HEAD, BlockKind.BERT_HEAD):
            suffix.append(bp.block.index)
        else:
            current.append(bp.block.index)
            if kind is BlockKind.FFN:
                layer_ids.append(current)
                current = []
    num_layers = len(layer_ids)
    total_virtual = num_stages * num_chunks
    if num_layers % total_virtual != 0:
        raise InterleavedInfeasible(
            f"{num_layers} layers do not divide into {num_stages} stages x "
            f"{num_chunks} chunks"
        )
    per_virtual = num_layers // total_virtual
    virtual: List[List[int]] = []
    for vs in range(total_virtual):
        blocks: List[int] = []
        for layer in layer_ids[vs * per_virtual:(vs + 1) * per_virtual]:
            blocks.extend(layer)
        virtual.append(blocks)
    virtual[0] = prefix + virtual[0]
    virtual[-1] = virtual[-1] + suffix
    return [
        [virtual[c * num_stages + x] for c in range(num_chunks)]
        for x in range(num_stages)
    ]


def _chunk_of(k: int, n: int, v: int, forward: bool) -> int:
    in_group = k % (n * v)
    chunk = in_group // n
    return chunk if forward else v - chunk - 1


def _microbatch_of(k: int, n: int, v: int) -> int:
    return (k // (n * v)) * n + k % n


def _warmup_count(n: int, m: int, v: int, x: int) -> int:
    """Forwards device ``x`` runs before its first backward."""
    if m == n:
        return m * v
    return min((n - x - 1) * 2 + (v - 1) * n, m * v)


def build_interleaved(
    profile: ModelProfile,
    num_stages: int,
    num_micro_batches: int,
    *,
    num_chunks: int = 2,
    name: str = "interleaved",
) -> Schedule:
    """The deferred interleaved schedule, key ``("interleaved", n, m, v)``."""
    n, m, v = num_stages, check_micro_batches(num_micro_batches), num_chunks
    if m % n != 0:
        raise InterleavedInfeasible(
            f"{m} micro-batches not a multiple of pipeline depth {n}"
        )
    device_chunks = interleaved_chunks(profile, n, v)
    costs = [
        [_StageCosts(profile, chunk) for chunk in device_chunks[x]]
        for x in range(n)
    ]
    bbytes = profile.boundary_bytes
    static = [
        sum(c.params for c in costs[x]) * profile.train.bytes_per_param_state
        for x in range(n)
    ]

    def emit() -> List[List[object]]:
        return _emit_interleaved(costs, bbytes, m, v)

    shape = ScheduleShape(("interleaved", n, m, v), costs, bbytes, emit)
    return Schedule.deferred(name, shape, static)


def _emit_interleaved(
    costs: List[List[_StageCosts]], bbytes: float, m: int, v: int
) -> List[List[object]]:
    n = len(costs)
    total = m * v

    def fwd_peers(x: int, c: int) -> Tuple[int, int]:
        """(virtual stage, previous virtual stage) of chunk c on device x."""
        vs = c * n + x
        return vs, vs - 1

    programs: List[List[object]] = []
    for x in range(n):
        program: List[object] = []
        nw = _warmup_count(n, m, v, x)

        def emit_fwd(k: int) -> None:
            c = _chunk_of(k, n, v, True)
            mb = _microbatch_of(k, n, v)
            vs, prev = fwd_peers(x, c)
            u = (mb, -1)
            if vs > 0:
                src = prev % n
                program.append(CommOp(
                    x, src,
                    (Transfer(f"act:{mb}:vs{prev}>vs{vs}", src, x, bbytes),),
                    rendezvous=False,
                ))
            cost = costs[x][c]
            program.append(ComputeOp(
                "F", u, cost.fwd(u),
                alloc_bytes=cost.stash(u),
                workspace_bytes=cost.workspace(u),
                phase="warmup" if k < nw else "steady",
                chunk=c,
            ))
            if vs < n * v - 1:
                dst = (vs + 1) % n
                program.append(CommOp(
                    x, dst,
                    (Transfer(f"act:{mb}:vs{vs}>vs{vs + 1}", x, dst, bbytes),),
                    rendezvous=False,
                ))

        def emit_bwd(k: int) -> None:
            c = _chunk_of(k, n, v, False)
            mb = _microbatch_of(k, n, v)
            vs = c * n + x
            u = (mb, -1)
            if vs < n * v - 1:
                src = (vs + 1) % n
                program.append(CommOp(
                    x, src,
                    (Transfer(f"grad:{mb}:vs{vs + 1}>vs{vs}", src, x, bbytes),),
                    rendezvous=False,
                ))
            cost = costs[x][c]
            program.append(ComputeOp(
                "B", u, cost.bwd(u),
                free_bytes=cost.stash(u),
                workspace_bytes=cost.workspace(u),
                phase="steady" if k < total - nw else "cooldown",
                chunk=c,
            ))
            if vs > 0:
                dst = (vs - 1) % n
                program.append(CommOp(
                    x, dst,
                    (Transfer(f"grad:{mb}:vs{vs}>vs{vs - 1}", x, dst, bbytes),),
                    rendezvous=False,
                ))

        for k in range(nw):
            emit_fwd(k)
        for j in range(total - nw):
            emit_fwd(nw + j)
            emit_bwd(j)
        for k in range(total - nw, total):
            emit_bwd(k)
        programs.append(program)
    return programs
