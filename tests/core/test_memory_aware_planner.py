"""Memory-aware planning tests (the memory_cap extension)."""

import pytest

from repro.config import TrainConfig
from repro.core.planner import _UnitSpace, plan_partition
from repro.hardware.device import DEFAULT_CLUSTER_HW
from repro.models.zoo import GPT2_345M
from repro.profiling import profile_model


@pytest.fixture(scope="module")
def hungry_profile():
    """GPT-2 345M at mbs 32: the logits stage breaks a 21 GiB cap when the
    partition is balanced purely by time."""
    train = TrainConfig(micro_batch_size=32, global_batch_size=512)
    return profile_model(GPT2_345M, DEFAULT_CLUSTER_HW, train)


class TestUnitSpaceMemory:
    def test_stage_memory_matches_memory_model(self, tiny_profile):
        from repro.core.balance_dp import balanced_partition
        from repro.parallel.memory_model import stage_memory
        space = _UnitSpace(tiny_profile, "sublayer")
        part = balanced_partition(tiny_profile.block_times(), 3)
        sizes = part.sizes
        via_space = space.memory.stage_peaks(sizes, 8)
        via_model = [
            stage_memory(tiny_profile, part, s, 8) for s in range(3)
        ]
        assert via_space == pytest.approx(via_model)


class TestMemoryCap:
    def test_unconstrained_plan_violates(self, hungry_profile):
        cap = hungry_profile.hardware.gpu_memory
        free = plan_partition(hungry_profile, 2, 8)
        space = _UnitSpace(hungry_profile, "sublayer")
        peaks = space.memory.stage_peaks(free.partition.sizes, 8)
        assert max(peaks) > cap  # time-balance alone overloads the head stage

    def test_capped_plan_fits(self, hungry_profile):
        cap = hungry_profile.hardware.gpu_memory
        capped = plan_partition(hungry_profile, 2, 8, memory_cap=cap)
        space = _UnitSpace(hungry_profile, "sublayer")
        peaks = space.memory.stage_peaks(capped.partition.sizes, 8)
        assert max(peaks) <= cap

    def test_capped_plan_no_better_than_free(self, hungry_profile):
        cap = hungry_profile.hardware.gpu_memory
        free = plan_partition(hungry_profile, 2, 8)
        capped = plan_partition(hungry_profile, 2, 8, memory_cap=cap)
        assert capped.iteration_time >= free.iteration_time - 1e-12

    def test_impossible_cap_raises(self, tiny_profile):
        with pytest.raises(RuntimeError, match="memory cap"):
            plan_partition(tiny_profile, 3, 8, memory_cap=1.0)

    @pytest.mark.parametrize("cap", [float("nan"), 0.0, -1.0, -1e15])
    def test_nan_or_non_positive_cap_rejected(self, tiny_profile, cap):
        """A NaN cap would switch the check off and a negative one fail
        with a meaningless "-0.0 GiB"; both are caller errors."""
        with pytest.raises(ValueError, match="memory_cap"):
            plan_partition(tiny_profile, 3, 8, memory_cap=cap)

    def test_generous_cap_is_noop(self, tiny_profile):
        free = plan_partition(tiny_profile, 3, 8)
        capped = plan_partition(tiny_profile, 3, 8, memory_cap=1e15)
        assert capped.partition == free.partition
