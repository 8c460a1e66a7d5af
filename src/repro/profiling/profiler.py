"""Offline profiler: model + hardware + training config -> ModelProfile.

The real AutoPipe collects these statistics by timing each block on one GPU
("within several minutes", Section III-A).  Our substitute derives them from
the analytic cost model plus a roofline execution-time estimate:

    time(block) = max(flops / achieved_flops, bytes_moved / achieved_mem_bw)
                  + kernel_launch_overhead

Backward time is twice the forward FLOPs; with activation checkpointing the
backward additionally re-runs the forward (Section II-C), which is the
configuration used in every experiment of the paper.  Checkpointing covers
the transformer layers only (Megatron checkpoints per layer); embedding,
final norm and the loss head are not recomputed.  The loss head's vocab
GEMM is large and regular enough to run near twice the achieved efficiency
of the smaller per-layer GEMMs.

An optional multiplicative jitter models measurement noise for robustness
tests; it defaults off so experiments are deterministic.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.config import HardwareConfig, ModelConfig, TrainConfig
from repro.hardware.comm import CommModel
from repro.models.blocks import Block, BlockKind
from repro.models.costs import block_costs
from repro.models.transformer import build_blocks
from repro.profiling.modelconfig import BlockProfile, ModelProfile

#: Relative efficiency of the loss head's vocab GEMM versus the smaller
#: per-layer GEMMs (capped at the device's peak).
VOCAB_GEMM_EFFICIENCY_BOOST = 2.0


def _roofline_time(
    flops: float, bytes_moved: float, hw: HardwareConfig,
    efficiency_boost: float = 1.0,
) -> float:
    achieved = min(hw.effective_flops * efficiency_boost, hw.peak_flops)
    compute = flops / achieved
    memory = bytes_moved / hw.effective_memory_bandwidth
    return max(compute, memory) + hw.kernel_launch_overhead


def _profile_block(
    block: Block,
    model: ModelConfig,
    hw: HardwareConfig,
    train: TrainConfig,
) -> BlockProfile:
    costs = block_costs(block, model, train.micro_batch_size, train.dtype_bytes)
    weight_bytes = costs.params * train.dtype_bytes
    fwd_bytes = costs.stash_bytes + costs.activation_out_bytes + weight_bytes \
        + costs.workspace_bytes
    # Backward touches activations twice (read saved, write grads) plus the
    # weight gradient traffic.
    bwd_bytes = 2.0 * fwd_bytes + weight_bytes

    boost = (
        VOCAB_GEMM_EFFICIENCY_BOOST
        if block.kind in (BlockKind.LM_HEAD, BlockKind.BERT_HEAD)
        else 1.0
    )
    fwd_time = _roofline_time(costs.fwd_flops, fwd_bytes, hw, boost)
    bwd_flops = costs.bwd_flops
    bwd_time = _roofline_time(bwd_flops, bwd_bytes, hw, boost)
    if train.activation_checkpointing and block.kind.is_sublayer:
        # Checkpointing recomputes the transformer layers' forward before
        # their backward (charged to BP); other blocks are not checkpointed.
        bwd_time += fwd_time
    return BlockProfile(
        block=block,
        fwd_time=fwd_time,
        bwd_time=bwd_time,
        params=costs.params,
        activation_out_bytes=costs.activation_out_bytes,
        stash_bytes=costs.stash_bytes,
        workspace_bytes=costs.workspace_bytes,
    )


def profile_model(
    model: ModelConfig,
    hardware: HardwareConfig,
    train: TrainConfig,
    *,
    noise: float = 0.0,
    seed: Optional[int] = None,
) -> ModelProfile:
    """Produce the "model configs" for one (model, hardware, micro-batch).

    Parameters
    ----------
    noise:
        Relative std-dev of multiplicative log-normal measurement noise
        applied to every block time.  ``0.0`` (default) is deterministic.
    seed:
        RNG seed for the noise; required when ``noise > 0``.
    """
    if noise < 0:
        raise ValueError("noise must be non-negative")
    blocks = build_blocks(model)
    # A block's costs depend only on its kind: profile each kind once,
    # then construct every block's profile from its kind's fields
    # (``__post_init__`` still validates; ``dataclasses.replace`` is
    # slower, and a model set-up builds thousands).
    by_kind: Dict[BlockKind, tuple] = {}
    for b in blocks:
        if b.kind not in by_kind:
            bp = _profile_block(b, model, hardware, train)
            by_kind[b.kind] = (
                bp.fwd_time, bp.bwd_time, bp.params,
                bp.activation_out_bytes, bp.stash_bytes, bp.workspace_bytes,
            )
    profiles = [BlockProfile(b, *by_kind[b.kind]) for b in blocks]

    if noise > 0:
        if seed is None:
            raise ValueError("profiling noise requires an explicit seed")
        rng = np.random.default_rng(seed)
        jitter = rng.lognormal(mean=0.0, sigma=noise, size=2 * len(profiles))
        profiles = [
            BlockProfile(
                bp.block, bp.fwd_time * jitter[2 * i],
                bp.bwd_time * jitter[2 * i + 1], bp.params,
                bp.activation_out_bytes, bp.stash_bytes, bp.workspace_bytes,
            )
            for i, bp in enumerate(profiles)
        ]

    boundary_bytes = float(train.micro_batch_size) * model.seq_length \
        * model.hidden_size * train.dtype_bytes
    comm = CommModel(hardware).pipeline_hop_time(boundary_bytes)
    return ModelProfile(
        model=model,
        hardware=hardware,
        train=train,
        blocks=tuple(profiles),
        comm_time=comm,
        boundary_bytes=boundary_bytes,
    )
