"""PartitionScheme and StageTimes invariants (unit + hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.partition import (
    PartitionScheme,
    StageTimes,
    stage_params,
    stage_times,
)


@st.composite
def sizes_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    return [draw(st.integers(min_value=1, max_value=5)) for _ in range(n)]


class TestPartitionScheme:
    def test_from_sizes_roundtrip(self):
        p = PartitionScheme.from_sizes([3, 2, 4])
        assert p.sizes == (3, 2, 4)
        assert p.num_blocks == 9
        assert p.stages[1] == (3, 4)

    def test_from_boundaries(self):
        p = PartitionScheme.from_boundaries(9, [3, 5])
        assert p.sizes == (3, 2, 4)
        assert p.boundaries == (3, 5)

    def test_bad_boundaries(self):
        with pytest.raises(ValueError):
            PartitionScheme.from_boundaries(9, [5, 3])
        with pytest.raises(ValueError):
            PartitionScheme.from_boundaries(9, [0, 3])

    def test_empty_stage_rejected(self):
        with pytest.raises(ValueError):
            PartitionScheme.from_sizes([3, 0, 2])

    def test_noncontiguous_rejected(self):
        with pytest.raises(ValueError):
            PartitionScheme(((0, 2), (1, 3)))

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            PartitionScheme(((0, 1), (3, 4)))

    def test_stage_of_block(self):
        p = PartitionScheme.from_sizes([3, 2, 4])
        assert p.stage_of_block(0) == 0
        assert p.stage_of_block(4) == 1
        assert p.stage_of_block(8) == 2
        with pytest.raises(ValueError):
            p.stage_of_block(9)

    @given(sizes_strategy())
    def test_boundaries_roundtrip(self, sizes):
        p = PartitionScheme.from_sizes(sizes)
        q = PartitionScheme.from_boundaries(p.num_blocks, p.boundaries)
        assert p == q

    @given(sizes_strategy())
    def test_sizes_sum_to_blocks(self, sizes):
        p = PartitionScheme.from_sizes(sizes)
        assert sum(p.sizes) == p.num_blocks


class TestStageTimes:
    def test_totals(self):
        t = StageTimes((1.0, 2.0), (3.0, 4.0), 0.1)
        assert t.total == (4.0, 6.0)

    def test_balance_std(self):
        balanced = StageTimes((1.0, 1.0), (2.0, 2.0), 0.0)
        skewed = StageTimes((1.0, 3.0), (2.0, 6.0), 0.0)
        assert balanced.balance_std() == pytest.approx(0.0)
        assert skewed.balance_std() > 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            StageTimes((1.0,), (1.0, 2.0), 0.0)

    def test_negative_time(self):
        with pytest.raises(ValueError):
            StageTimes((-1.0,), (1.0,), 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["fwd", "bwd", "comm"])
    def test_non_finite_time_names_field(self, field, bad):
        """NaN / +-inf fail at construction, naming the offending field."""
        kwargs = {"fwd": (1.0, 2.0), "bwd": (2.0, 2.0), "comm": 0.1}
        kwargs[field] = bad if field == "comm" else (bad, 1.0)
        with pytest.raises(ValueError, match=rf"^{field} time"):
            StageTimes(**kwargs)

    def test_non_finite_after_finite_entries(self):
        """The check covers every stage, not just the first or the min."""
        with pytest.raises(ValueError, match="^bwd"):
            StageTimes((1.0, 2.0, 3.0), (1.0, 2.0, float("nan")), 0.0)

    @pytest.mark.parametrize("comm", [0.0, -0.0, 1e300])
    def test_finite_boundary_values_accepted(self, comm):
        """Zero, signed zero and huge finite values stay valid inputs."""
        t = StageTimes((0.0, 1e300), (-0.0, 0.0), comm)
        assert t.num_stages == 2


class TestAggregation:
    def test_stage_times_sum_blocks(self, tiny_profile):
        p = PartitionScheme.from_sizes([5, 5, tiny_profile.num_blocks - 10])
        times = stage_times(p, tiny_profile)
        assert sum(times.fwd) == pytest.approx(tiny_profile.total_fwd_time())
        assert sum(times.total) == pytest.approx(tiny_profile.total_time())

    def test_stage_params_sum(self, tiny_profile):
        p = PartitionScheme.from_sizes([5, tiny_profile.num_blocks - 5])
        assert sum(stage_params(p, tiny_profile)) == pytest.approx(
            tiny_profile.total_params()
        )

    def test_mismatched_block_count(self, tiny_profile):
        p = PartitionScheme.from_sizes([2, 2])
        with pytest.raises(ValueError):
            stage_times(p, tiny_profile)

    def test_layers_per_stage_sums_to_model(self, tiny_profile):
        n = tiny_profile.num_blocks
        p = PartitionScheme.from_sizes([n // 2, n - n // 2])
        layers = p.layers_per_stage(tiny_profile)
        assert sum(layers) == tiny_profile.model.num_layers

    def test_describe_mentions_stages(self, tiny_profile):
        n = tiny_profile.num_blocks
        p = PartitionScheme.from_sizes([n // 2, n - n // 2])
        text = p.describe(tiny_profile)
        assert "stage0" in text and "stage1" in text
