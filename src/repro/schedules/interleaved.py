"""Megatron-LM's interleaved 1F1B schedule (the paper's startup baseline).

Each device hosts ``v`` model chunks; virtual stage ``c * n + x`` lives on
device ``x``.  The first micro-batch reaches the end of the model after
traversing chunks of depth ``L / v`` per hop, roughly halving the startup
overhead for ``v = 2`` — at the cost of keeping more activations in flight
(OOM at large micro-batch sizes, Fig. 14(a)) and of two applicability
constraints the paper exploits in Fig. 14(b):

* the transformer layer count must divide evenly into ``n * v`` chunks;
* the micro-batch count must be a multiple of the pipeline depth.

Violations raise :class:`InterleavedInfeasible` (the "X" marks), as do a
depth or chunk count that is not an integer of at least 2.  The
virtual-micro-batch ordering (:func:`interleaved`) is ported from
Megatron-LM's ``forward_backward_pipelining_with_interleaving``.
Communication is buffered (Megatron posts batched isend/irecv pairs).
"""

from __future__ import annotations

from numbers import Integral
from typing import List

from repro.models.blocks import BlockKind
from repro.profiling.modelconfig import ModelProfile
from repro.schedules.base import Schedule, ScheduleShape, check_micro_batches
from repro.schedules.one_f_one_b import _StageCosts


class InterleavedInfeasible(ValueError):
    """The interleaved schedule cannot run this configuration."""


def _check_at_least_two(name: str, value: object) -> int:
    """``value`` as an int of at least 2, or :class:`InterleavedInfeasible`
    naming ``name`` (a ``bool`` is no count, as in ``check_micro_batches``)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InterleavedInfeasible(
            f"{name} must be an integer, got {value!r}"
        )
    if value < 2:
        raise InterleavedInfeasible(
            f"interleaving needs {name} of at least 2, got {value}"
        )
    return int(value)


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
    n = _check_at_least_two("num_stages", num_stages)
    v = _check_at_least_two("num_chunks", num_chunks)
    m = check_micro_batches(num_micro_batches)
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


def interleaved(sink, depth: int, m: int, chunks: int) -> None:
    """Drive ``sink`` through Megatron's virtual-micro-batch order over
    ``chunks`` model chunks per device, all communication buffered.
    Virtual stage ``c * depth + x`` is chunk ``c`` of device ``x``."""
    n, v = depth, chunks
    total = m * v
    last = n * v - 1
    for x in range(n):
        sink.device(x)
        nw = _warmup_count(n, m, v, x)

        def fwd(k: int) -> None:
            c = _chunk_of(k, n, v, True)
            mb = _microbatch_of(k, n, v)
            vs = c * n + x
            u = (mb, -1)
            if vs > 0:
                sink.eager(
                    (vs - 1) % n, False, f"act:{mb}:vs{vs - 1}>vs{vs}", u
                )
            sink.compute("F", c, u, "warmup" if k < nw else "steady")
            if vs < last:
                sink.eager(
                    (vs + 1) % n, True, f"act:{mb}:vs{vs}>vs{vs + 1}", u
                )

        def bwd(k: int) -> None:
            c = _chunk_of(k, n, v, False)
            mb = _microbatch_of(k, n, v)
            vs = c * n + x
            u = (mb, -1)
            if vs < last:
                sink.eager(
                    (vs + 1) % n, False, f"grad:{mb}:vs{vs + 1}>vs{vs}", u
                )
            sink.compute("B", c, u, "steady" if k < total - nw else "cooldown")
            if vs > 0:
                sink.eager(
                    (vs - 1) % n, True, f"grad:{mb}:vs{vs}>vs{vs - 1}", u
                )

        for k in range(nw):
            fwd(k)
        for j in range(total - nw):
            fwd(nw + j)
            bwd(j)
        for k in range(total - nw, total):
            bwd(k)
