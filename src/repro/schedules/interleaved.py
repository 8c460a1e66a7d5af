"""Megatron-LM's interleaved 1F1B schedule (the paper's startup baseline).

Each device hosts ``v`` model chunks; virtual stage ``c * n + x`` lives on
device ``x``.  The first micro-batch reaches the end of the model after
traversing chunks of depth ``L / v`` per hop, roughly halving the startup
overhead for ``v = 2`` — at the cost of keeping more activations in flight
(OOM at large micro-batch sizes, Fig. 14(a)) and of two applicability
constraints the paper exploits in Fig. 14(b):

* the transformer layer count must divide evenly into ``n * v`` chunks;
* the micro-batch count must be a multiple of the pipeline depth.

Violations raise :class:`InterleavedInfeasible` (the "X" marks), as does a
depth or chunk count below 2; one that is no integer raises ``TypeError``.
The virtual-micro-batch ordering (:func:`interleaved`) is ported from
Megatron-LM's ``forward_backward_pipelining_with_interleaving``.
Communication is buffered (Megatron posts batched isend/irecv pairs).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro import _checks
from repro.models.blocks import BlockKind
from repro.profiling.modelconfig import ModelProfile
from repro.schedules.base import (
    OP_B,
    OP_F,
    OP_RECV,
    OP_SEND,
    OpTable,
    Schedule,
    ScheduleShape,
    full_units,
    message_id,
    op_slot,
)
from repro.schedules.one_f_one_b import _StageCosts


class InterleavedInfeasible(ValueError):
    """The interleaved schedule cannot run this configuration."""


def _check_at_least_two(name: str, value: object) -> int:
    """``value`` as an int of at least 2: :class:`InterleavedInfeasible`
    naming ``name`` below 2, ``TypeError`` for no integer."""
    try:
        return _checks.count(name, value, 2)
    except ValueError as exc:
        raise InterleavedInfeasible(str(exc)) from None


def interleaved_chunks(
    profile: ModelProfile, num_stages: int, num_chunks: int
) -> List[List[List[int]]]:
    """Assign blocks to ``num_stages * num_chunks`` uniform virtual stages.

    Returns ``chunks[device][chunk] -> block indices``.  Transformer layers
    are divided evenly; the embedding joins the first virtual stage and the
    final norm + head join the last (Megatron's pre/post-process).
    """
    num_stages = _check_at_least_two("num_stages", num_stages)
    num_chunks = _check_at_least_two("num_chunks", num_chunks)
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


def _chunk_of(k: np.ndarray, n: int, v: int, forward: bool) -> np.ndarray:
    in_group = k % (n * v)
    chunk = in_group // n
    return chunk if forward else v - chunk - 1


def _microbatch_of(k: np.ndarray, n: int, v: int) -> np.ndarray:
    return (k // (n * v)) * n + k % n


def _warmup_count(n: int, m: int, v: int, x: np.ndarray) -> np.ndarray:
    """Forwards each device of ``x`` runs before its first backward."""
    if m == n:
        return np.full_like(x, m * v)
    return np.minimum((n - x - 1) * 2 + (v - 1) * n, m * v)


def build_interleaved(
    profile: ModelProfile,
    num_stages: int,
    num_micro_batches: int,
    *,
    num_chunks: int = 2,
    name: str = "interleaved",
) -> Schedule:
    """The deferred interleaved schedule, key ``("interleaved", n, m, v)``."""
    n = _check_at_least_two("num_stages", num_stages)
    v = _check_at_least_two("num_chunks", num_chunks)
    m = _checks.count("num_micro_batches", num_micro_batches)
    if m % n != 0:
        raise InterleavedInfeasible(
            f"{m} micro-batches not a multiple of pipeline depth {n}"
        )
    device_chunks = interleaved_chunks(profile, n, v)
    costs = [
        [_StageCosts(profile, chunk) for chunk in device_chunks[x]]
        for x in range(n)
    ]
    static = [
        sum(c.params for c in costs[x]) * profile.train.bytes_per_param_state
        for x in range(n)
    ]
    shape = ScheduleShape(
        ("interleaved", n, m, v), costs, profile.boundary_bytes
    )
    return Schedule.deferred(name, shape, static)


def interleaved(depth: int, m: int, chunks: int) -> OpTable:
    """Megatron's virtual-micro-batch order over ``chunks`` model chunks
    per device as an op table, all communication buffered.  Virtual
    stage ``c * depth + x`` is chunk ``c`` of device ``x``.

    Device ``x`` runs ``nw`` warmup forwards, ``total - nw`` steady
    forward/backward pairs and ``nw`` cooldown backwards, where ``total =
    m * chunks`` counts virtual micro-batches.
    """
    n, v = depth, chunks
    total = m * v
    last = n * v - 1
    x = np.arange(n)[:, None]
    k = np.arange(total)[None, :]
    nw = _warmup_count(n, m, v, x)

    def msg(grad, mb, src):
        return message_id(grad, mb, src, m, n * v)

    def fwd(mask, k, phase):
        """Virtual micro-batch ``k``'s forward: receive, pass, send."""
        c = _chunk_of(k, n, v, True)
        mb = _microbatch_of(k, n, v)
        vs = c * n + x
        return [
            op_slot(mask & (vs > 0), OP_RECV, peer=(vs - 1) % n,
                    recv=msg(0, mb, vs - 1)),
            op_slot(mask, OP_F, chunk=c, unit=mb, phase=phase),
            op_slot(mask & (vs < last), OP_SEND, peer=(vs + 1) % n,
                    send=msg(0, mb, vs)),
        ]

    def bwd(mask, k, phase):
        """Virtual micro-batch ``k``'s backward: receive, pass, send."""
        c = _chunk_of(k, n, v, False)
        mb = _microbatch_of(k, n, v)
        vs = c * n + x
        return [
            op_slot(mask & (vs < last), OP_RECV, peer=(vs + 1) % n,
                    recv=msg(1, mb, vs + 1)),
            op_slot(mask, OP_B, chunk=c, unit=mb, phase=phase),
            op_slot(mask & (vs > 0), OP_SEND, peer=(vs - 1) % n,
                    send=msg(1, mb, vs)),
        ]

    steady = k < total - nw
    return OpTable.from_sections(n, full_units(m), n * v, [
        (total, fwd(k < nw, k, 0)),
        (total, fwd(steady, nw + k, 1) + bwd(steady, k, 1)),
        (total, bwd(k < nw, total - nw + k, 2)),
    ], tag_prefix="vs")
