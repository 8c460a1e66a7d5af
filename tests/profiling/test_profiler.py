"""Profiler tests: determinism, checkpointing rules, noise injection,
and one profile per block kind equal to profiling every block."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import HardwareConfig, ModelConfig, TrainConfig
from repro.models.blocks import BlockKind
from repro.models.transformer import build_blocks
from repro.profiling import profile_model
from repro.profiling.profiler import (
    VOCAB_GEMM_EFFICIENCY_BOOST,
    _profile_block,
)
from tests.conftest import TINY

HW = HardwareConfig()
TRAIN = TrainConfig(micro_batch_size=4, global_batch_size=64)


class TestProfileModel:
    def test_deterministic(self):
        a = profile_model(TINY, HW, TRAIN)
        b = profile_model(TINY, HW, TRAIN)
        assert a.fwd_times() == b.fwd_times()
        assert a.bwd_times() == b.bwd_times()

    def test_block_order_matches_model(self):
        profile = profile_model(TINY, HW, TRAIN)
        assert [bp.block.index for bp in profile.blocks] == \
            list(range(profile.num_blocks))

    def test_checkpointed_sublayers_pay_recompute(self):
        """With checkpointing BP >= 2x fwd + recompute for sub-layers."""
        with_ckpt = profile_model(TINY, HW, TRAIN)
        without = profile_model(
            TINY, HW, TRAIN.replace(activation_checkpointing=False)
        )
        for a, b in zip(with_ckpt.blocks, without.blocks):
            if a.block.kind.is_sublayer:
                assert a.bwd_time == pytest.approx(b.bwd_time + a.fwd_time)
            else:
                # Heads/embedding are outside the checkpoint scope.
                assert a.bwd_time == pytest.approx(b.bwd_time)

    def test_head_runs_faster_than_raw_flops_ratio(self):
        """The vocab GEMM gets the efficiency boost."""
        profile = profile_model(TINY, HW, TRAIN)
        head = next(bp for bp in profile.blocks
                    if bp.block.kind is BlockKind.LM_HEAD)
        from repro.models.costs import block_costs
        costs = block_costs(head.block, TINY, TRAIN.micro_batch_size)
        naive = costs.fwd_flops / HW.effective_flops
        # compute-bound tiny model: boosted time clearly under naive.
        assert head.fwd_time < naive or VOCAB_GEMM_EFFICIENCY_BOOST == 1.0

    def test_comm_time_matches_boundary(self):
        profile = profile_model(TINY, HW, TRAIN)
        expected_bytes = (
            TRAIN.micro_batch_size * TINY.seq_length * TINY.hidden_size * 2
        )
        assert profile.boundary_bytes == expected_bytes
        assert profile.comm_time > 0

    def test_times_scale_with_micro_batch(self):
        small = profile_model(TINY, HW, TRAIN)
        big = profile_model(
            TINY, HW, TrainConfig(micro_batch_size=16, global_batch_size=64)
        )
        assert big.total_fwd_time() > small.total_fwd_time()

    def test_faster_hardware_means_faster_blocks(self):
        fast_hw = HardwareConfig(peak_flops=HW.peak_flops * 4,
                                 memory_bandwidth=HW.memory_bandwidth * 4)
        slow = profile_model(TINY, HW, TRAIN)
        fast = profile_model(TINY, fast_hw, TRAIN)
        assert fast.total_time() < slow.total_time()


class TestNoise:
    def test_noise_requires_seed(self):
        with pytest.raises(ValueError):
            profile_model(TINY, HW, TRAIN, noise=0.1)

    def test_noise_is_reproducible_per_seed(self):
        a = profile_model(TINY, HW, TRAIN, noise=0.1, seed=7)
        b = profile_model(TINY, HW, TRAIN, noise=0.1, seed=7)
        c = profile_model(TINY, HW, TRAIN, noise=0.1, seed=8)
        assert a.fwd_times() == b.fwd_times()
        assert a.fwd_times() != c.fwd_times()

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            profile_model(TINY, HW, TRAIN, noise=-0.1, seed=1)

    def test_noisy_times_stay_positive(self):
        profile = profile_model(TINY, HW, TRAIN, noise=0.5, seed=3)
        assert all(t > 0 for t in profile.fwd_times())
        assert all(t > 0 for t in profile.bwd_times())


@settings(max_examples=80, deadline=None)
@given(
    num_layers=st.integers(1, 12),
    num_heads=st.integers(1, 16),
    head_dim=st.sampled_from((8, 64, 80)),
    seq_length=st.sampled_from((16, 512, 1024)),
    vocab_size=st.integers(100, 60_000),
    ffn_hidden_size=st.sampled_from((0, 96, 3072)),
    is_bert=st.booleans(),
    micro_batch_size=st.integers(1, 8),
    checkpointing=st.booleans(),
    noise=st.sampled_from((0.0, 0.05, 0.3)),
    seed=st.integers(0, 2**16),
)
def test_per_kind_profiling_equals_per_block_profiling(
    num_layers, num_heads, head_dim, seq_length, vocab_size,
    ffn_hidden_size, is_bert, micro_batch_size, checkpointing, noise, seed,
):
    """``profile_model`` profiles each block kind once; every field of
    every block equals profiling that block on its own, with the noise
    jitter drawn per block as before."""
    model = ModelConfig(
        "random", num_layers, num_heads * head_dim, num_heads, seq_length,
        vocab_size, ffn_hidden_size, is_bert,
    )
    train = TrainConfig(
        micro_batch_size=micro_batch_size,
        global_batch_size=8 * micro_batch_size,
        activation_checkpointing=checkpointing,
    )
    got = profile_model(
        model, HW, train, noise=noise, seed=seed if noise else None
    )
    spec = [_profile_block(b, model, HW, train) for b in build_blocks(model)]
    if noise:
        jitter = np.random.default_rng(seed).lognormal(
            mean=0.0, sigma=noise, size=2 * len(spec)
        )
        spec = [
            dataclasses.replace(
                bp,
                fwd_time=bp.fwd_time * jitter[2 * i],
                bwd_time=bp.bwd_time * jitter[2 * i + 1],
            )
            for i, bp in enumerate(spec)
        ]
    assert len(got.blocks) == len(spec)
    for bp, ref in zip(got.blocks, spec):
        for field in dataclasses.fields(ref):
            assert getattr(bp, field.name) == getattr(ref, field.name), (
                bp.block, field.name,
            )
