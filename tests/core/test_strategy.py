"""Cluster-level strategy tests: the dp/pp choice and its arguments."""

import pytest

from repro.baselines.dapple import plan_dapple
from repro.baselines.piper import plan_piper
from repro.config import TrainConfig
from repro.core.strategy import autopipe_config, autotune_config
from repro.hardware.device import DEFAULT_CLUSTER_HW
from repro.models.zoo import GPT2_1_3B, GPT2_345M
from repro.profiling import profile_model


def make_profile(model, mbs, gbs):
    return profile_model(
        model, DEFAULT_CLUSTER_HW,
        TrainConfig(micro_batch_size=mbs, global_batch_size=gbs),
    )


class TestRemovedKeywords:
    def test_sim_cache_keyword_removed(self):
        """Only ``plan_partition`` still takes a caller's ``SimCache``;
        the sweep entry points never share one."""
        from repro.baselines.common import evaluate_config
        from repro.core.autopipe import autopipe_plan
        from repro.core.planner import SimCache
        from tests.conftest import TINY

        profile = make_profile(GPT2_345M, 4, 128)
        train = TrainConfig(micro_batch_size=4, global_batch_size=32)
        cfg = autopipe_config(profile, 4, 128)
        for call in (
            lambda **kw: autotune_config(profile, 4, **kw),
            lambda **kw: autopipe_config(profile, 4, 128, **kw),
            lambda **kw: autopipe_plan(
                TINY, DEFAULT_CLUSTER_HW, train, 3, 8, **kw
            ),
            lambda **kw: evaluate_config(profile, cfg, 128, **kw),
        ):
            with pytest.raises(TypeError, match="sim_cache"):
                call(sim_cache=SimCache())

    @pytest.mark.parametrize("keyword", [
        "granularity", "comm_mode", "oracle_max_space",
    ])
    def test_cluster_planners_take_no_options(self, gpt2_profile, keyword):
        """Both cluster planners search at sub-layer granularity in paper
        mode; neither takes a keyword option."""
        for call in (
            lambda **kw: autotune_config(gpt2_profile, 4, **kw),
            lambda **kw: autopipe_config(gpt2_profile, 4, 128, **kw),
        ):
            with pytest.raises(TypeError, match=keyword):
                call(**{keyword: None})


_CLUSTER_PLANNERS = {
    "autopipe": autopipe_config,
    "piper": plan_piper,
    "dapple": plan_dapple,
}


class TestClusterSizes:
    """Every cluster planner checks ``num_gpus`` and ``global_batch_size``
    up front, with an error that names the argument."""

    @pytest.mark.parametrize("planner", sorted(_CLUSTER_PLANNERS))
    @pytest.mark.parametrize("gpus, gbs, name", [
        (0, 32, "num_gpus"), (-2, 32, "num_gpus"),
        (4, 0, "global_batch_size"), (4, -8, "global_batch_size"),
    ])
    def test_non_positive_sizes_rejected(self, gpt2_profile, planner,
                                         gpus, gbs, name):
        with pytest.raises(ValueError, match=name):
            _CLUSTER_PLANNERS[planner](gpt2_profile, gpus, gbs)

    @pytest.mark.parametrize("planner", sorted(_CLUSTER_PLANNERS))
    @pytest.mark.parametrize("gpus, gbs, name", [
        (True, 32, "num_gpus"), (4.0, 32, "num_gpus"),
        (4, 32.0, "global_batch_size"), (4, "32", "global_batch_size"),
    ])
    def test_non_integer_sizes_rejected(self, gpt2_profile, planner,
                                        gpus, gbs, name):
        with pytest.raises(TypeError, match=name):
            _CLUSTER_PLANNERS[planner](gpt2_profile, gpus, gbs)

    @pytest.mark.parametrize("gpus", [0, -2, True, 2.0])
    def test_autotune_checks_num_gpus(self, gpt2_profile, gpus):
        with pytest.raises((TypeError, ValueError), match="num_gpus"):
            autotune_config(gpt2_profile, gpus)


class TestAutopipeConfig:
    def test_low_memory_uses_pure_data_parallelism(self):
        profile = make_profile(GPT2_345M, 4, 128)
        cfg = autopipe_config(profile, 16, 128)
        assert cfg.num_stages == 1
        assert cfg.replicas == (16,)

    def test_high_memory_picks_two_stages(self):
        """GPT-2 345M at mbs 32 cannot fit one GPU: shallowest pipeline."""
        profile = make_profile(GPT2_345M, 32, 512)
        cfg = autopipe_config(profile, 4, 512)
        assert cfg.num_stages == 2
        assert cfg.replicas == (2, 2)

    def test_gpt13b_needs_four_stages(self):
        profile = make_profile(GPT2_1_3B, 16, 512)
        cfg = autopipe_config(profile, 4, 512)
        assert cfg.num_stages == 4

    def test_plan_fits_memory(self):
        from repro.baselines.common import config_memory
        profile = make_profile(GPT2_345M, 32, 512)
        cfg = autopipe_config(profile, 4, 512)
        peaks = config_memory(
            profile, cfg.partition, cfg.replicas, 16, 32, "stream"
        )
        assert all(p <= profile.hardware.gpu_memory for p in peaks)

    def test_search_time_recorded(self):
        profile = make_profile(GPT2_345M, 4, 128)
        cfg = autopipe_config(profile, 4, 128)
        assert cfg.search_seconds >= 0

    def test_indivisible_batch_rejected(self):
        profile = make_profile(GPT2_345M, 4, 128)
        with pytest.raises(ValueError):
            autopipe_config(profile, 4, 130)
