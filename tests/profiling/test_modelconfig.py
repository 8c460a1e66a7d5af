"""ModelProfile validation and half-batch scaling tests."""

import dataclasses
import math

import pytest

from repro.profiling.modelconfig import BlockProfile, ModelProfile

_BLOCK_FIELDS = ("fwd_time", "bwd_time", "params", "activation_out_bytes",
                 "stash_bytes", "workspace_bytes")
_BAD_VALUES = (math.nan, math.inf, -math.inf, -1.0)


class TestValidation:
    def test_negative_time_rejected(self, tiny_profile):
        bp = tiny_profile.blocks[0]
        with pytest.raises(ValueError):
            BlockProfile(
                block=bp.block, fwd_time=-1.0, bwd_time=1.0,
                params=0, activation_out_bytes=0, stash_bytes=0,
                workspace_bytes=0,
            )

    @pytest.mark.parametrize("value", _BAD_VALUES)
    @pytest.mark.parametrize("name", _BLOCK_FIELDS)
    def test_block_field_must_be_finite_and_non_negative(
        self, tiny_profile, name, value
    ):
        with pytest.raises(ValueError, match=f"BlockProfile.{name} "):
            dataclasses.replace(tiny_profile.blocks[0], **{name: value})

    @pytest.mark.parametrize("value", _BAD_VALUES)
    @pytest.mark.parametrize("name", ("comm_time", "boundary_bytes"))
    def test_profile_field_must_be_finite_and_non_negative(
        self, tiny_profile, name, value
    ):
        with pytest.raises(ValueError, match=f"ModelProfile.{name} "):
            dataclasses.replace(tiny_profile, **{name: value})

    def test_zero_values_accepted(self, tiny_profile):
        bp = dataclasses.replace(
            tiny_profile.blocks[0], **{name: 0.0 for name in _BLOCK_FIELDS}
        )
        assert bp.total_time == 0.0
        assert dataclasses.replace(
            tiny_profile, comm_time=0.0, boundary_bytes=0.0
        ).comm_time == 0.0

    def test_empty_profile_rejected(self, tiny_profile):
        with pytest.raises(ValueError):
            ModelProfile(
                model=tiny_profile.model,
                hardware=tiny_profile.hardware,
                train=tiny_profile.train,
                blocks=(),
            )

    def test_out_of_order_blocks_rejected(self, tiny_profile):
        blocks = (tiny_profile.blocks[1], tiny_profile.blocks[0])
        with pytest.raises(ValueError):
            ModelProfile(
                model=tiny_profile.model,
                hardware=tiny_profile.hardware,
                train=tiny_profile.train,
                blocks=blocks,
            )


class TestAggregates:
    def test_block_times_are_sums(self, tiny_profile):
        for bp, t in zip(tiny_profile.blocks, tiny_profile.block_times()):
            assert t == pytest.approx(bp.fwd_time + bp.bwd_time)

    def test_total_params_positive(self, tiny_profile):
        assert tiny_profile.total_params() > 0

    def test_slice_profiles(self, tiny_profile):
        out = tiny_profile.slice_profiles([0, 2])
        assert [bp.block.index for bp in out] == [0, 2]


class TestFractionScaling:
    def test_half_is_more_than_half_time(self, tiny_profile):
        """Kernel overhead does not shrink with the batch."""
        half = tiny_profile.with_micro_batch_fraction(0.5)
        for full_bp, half_bp in zip(tiny_profile.blocks, half.blocks):
            assert half_bp.fwd_time > full_bp.fwd_time / 2
            assert half_bp.fwd_time < full_bp.fwd_time

    def test_bytes_scale_exactly(self, tiny_profile):
        half = tiny_profile.with_micro_batch_fraction(0.5)
        assert half.boundary_bytes == pytest.approx(
            tiny_profile.boundary_bytes / 2
        )
        for full_bp, half_bp in zip(tiny_profile.blocks, half.blocks):
            assert half_bp.stash_bytes == pytest.approx(full_bp.stash_bytes / 2)

    def test_full_fraction_is_identity(self, tiny_profile):
        same = tiny_profile.with_micro_batch_fraction(1.0)
        assert same.fwd_times() == pytest.approx(tiny_profile.fwd_times())

    def test_invalid_fraction(self, tiny_profile):
        with pytest.raises(ValueError):
            tiny_profile.with_micro_batch_fraction(0.0)
        with pytest.raises(ValueError):
            tiny_profile.with_micro_batch_fraction(1.5)
