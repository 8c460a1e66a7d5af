"""Heuristic planner tests: quality, ablations, determinism."""

import numpy as np
import pytest

from repro.baselines.megatron import uniform_partition
from repro.core.analytic_sim import simulate_partition
from repro.core.balance_dp import balanced_partition
from repro.core.partition import stage_times
from repro.core.planner import _cooldown_adjust, _UnitSpace, plan_partition

from tests.test_boundary import BAD_COUNTS, assert_rejects_bad_counts


class TestPlanQuality:
    @pytest.mark.parametrize("stages,m", [(2, 4), (3, 6), (4, 8)])
    def test_beats_or_matches_megatron(self, gpt2_profile, stages, m):
        planned = plan_partition(gpt2_profile, stages, m)
        if gpt2_profile.model.num_layers % stages == 0:
            mega = uniform_partition(gpt2_profile, stages)
            mega_sim = simulate_partition(gpt2_profile, mega, m)
            assert planned.iteration_time <= mega_sim.iteration_time + 1e-12

    def test_beats_or_matches_algorithm1_seed(self, gpt2_profile):
        planned = plan_partition(gpt2_profile, 4, 8)
        seed = balanced_partition(gpt2_profile.block_times(), 4)
        seed_sim = simulate_partition(gpt2_profile, seed, 8)
        assert planned.iteration_time <= seed_sim.iteration_time + 1e-12

    def test_partition_is_valid(self, gpt2_profile):
        planned = plan_partition(gpt2_profile, 4, 8)
        assert planned.partition.num_blocks == gpt2_profile.num_blocks
        assert planned.partition.num_stages == 4

    def test_deterministic(self, gpt2_profile):
        a = plan_partition(gpt2_profile, 4, 8)
        b = plan_partition(gpt2_profile, 4, 8)
        assert a.partition == b.partition
        assert a.iteration_time == b.iteration_time

    def test_evaluations_bounded(self, gpt2_profile):
        planned = plan_partition(gpt2_profile, 4, 8, max_evaluations=32)
        assert planned.evaluations <= 32

    def test_search_time_recorded(self, gpt2_profile):
        planned = plan_partition(gpt2_profile, 4, 8)
        assert planned.search_seconds > 0

    def test_history_collection(self, gpt2_profile):
        planned = plan_partition(gpt2_profile, 4, 8)
        assert len(planned.history) == planned.evaluations
        sizes = [s for s, _ in planned.history]
        assert len(set(sizes)) == len(sizes)
        assert (planned.partition.sizes, planned.iteration_time) in (
            planned.history
        )

    def test_invalid_args(self, tiny_profile):
        assert_rejects_bad_counts(plan_partition, tiny_profile, BAD_COUNTS + [
            ("jobs", 2, ValueError),
            ("jobs", 0, ValueError),
            ("jobs", True, TypeError),
            ("max_evaluations", 0, ValueError),
            ("max_evaluations", -1, ValueError),
            ("max_evaluations", 1.5, TypeError),
            # Removed keywords: history is always kept, telemetry goes
            # through the current registry.
            ("keep_history", True, TypeError),
            ("telemetry", False, TypeError),
            # A bool knob is a bool: "False" must not run the cooldown
            # adjustment by its truthiness.
            ("cooldown_adjust", "False", TypeError),
            ("cooldown_adjust", 1, TypeError),
            # The plan cache is gone; only cache=False is accepted.
            ("cache", None, TypeError),
            ("cache", True, TypeError),
        ])
        ref = plan_partition(tiny_profile, 3, 8)
        res = plan_partition(tiny_profile, np.int64(3), np.int32(8))
        assert res.partition == ref.partition
        assert res.iteration_time == ref.iteration_time
        # jobs=1 and cache=False, the only accepted values, still plan,
        # and a numpy bool is a bool.
        for kwargs in ({"jobs": 1}, {"cache": False},
                       {"cooldown_adjust": np.bool_(True)}):
            one = plan_partition(tiny_profile, 3, 8, **kwargs)
            assert one.partition == ref.partition
            assert one.iteration_time == ref.iteration_time

    def test_too_many_stages_rejected(self, tiny_profile):
        with pytest.raises(ValueError):
            plan_partition(tiny_profile, tiny_profile.num_blocks + 1, 4)


class TestGranularityAblation:
    def test_layer_granularity_runs(self, gpt2_profile):
        planned = plan_partition(gpt2_profile, 4, 8, granularity="layer")
        assert planned.granularity == "layer"
        # Layer granularity never splits a transformer layer.
        for layers in planned.partition.layers_per_stage(gpt2_profile):
            assert layers == int(layers)

    def test_sublayer_at_least_as_good(self, gpt2_profile):
        """Fig 3's claim: finer granularity can only improve the optimum."""
        sub = plan_partition(gpt2_profile, 4, 8, granularity="sublayer")
        layer = plan_partition(gpt2_profile, 4, 8, granularity="layer")
        assert sub.iteration_time <= layer.iteration_time + 1e-12

    def test_sublayer_strictly_better_on_odd_split(self, gpt2_profile):
        """With a depth that does not divide the layers, halves help."""
        sub = plan_partition(gpt2_profile, 5, 10, granularity="sublayer")
        layer = plan_partition(gpt2_profile, 5, 10, granularity="layer")
        assert sub.iteration_time <= layer.iteration_time

    def test_unknown_granularity(self, gpt2_profile):
        with pytest.raises(ValueError):
            plan_partition(gpt2_profile, 4, 8, granularity="token")


class TestCooldownAdjustAblation:
    def test_adjustment_never_hurts_final_result(self, gpt2_profile):
        on = plan_partition(gpt2_profile, 4, 8, cooldown_adjust=True)
        off = plan_partition(gpt2_profile, 4, 8, cooldown_adjust=False)
        # Both searches keep the best seen, so enabling the extra move
        # cannot make the outcome worse by more than float noise.
        assert on.iteration_time <= off.iteration_time * 1.001

    def test_cooldown_adjust_preserves_blocks(self, gpt2_profile):
        space = _UnitSpace(gpt2_profile, "sublayer")
        sizes = tuple(
            balanced_partition(gpt2_profile.block_times(), 4).sizes
        )
        b_master = space.stage_times(sizes).bwd[1]
        adjusted = _cooldown_adjust(sizes, 1, b_master, space)
        assert sum(adjusted) == sum(sizes)
        assert all(s >= 1 for s in adjusted)
        assert adjusted[:2] == sizes[:2]  # stages up to the master untouched

    def test_cooldown_adjust_noop_for_last_master(self, gpt2_profile):
        space = _UnitSpace(gpt2_profile, "sublayer")
        sizes = tuple(
            balanced_partition(gpt2_profile.block_times(), 4).sizes
        )
        b_master = space.stage_times(sizes).bwd[3]
        assert _cooldown_adjust(sizes, 3, b_master, space) == sizes


class TestEquationOne:
    def test_adjusted_prefixes_respect_bound_when_feasible(self, gpt2_profile):
        """After adjustment, Eq (1) holds for feasible prefixes."""
        space = _UnitSpace(gpt2_profile, "sublayer")
        sizes = tuple(
            balanced_partition(gpt2_profile.block_times(), 4).sizes
        )
        master = 0
        adjusted = _cooldown_adjust(
            sizes, master, space.stage_times(sizes).bwd[master], space
        )
        t = space.stage_times(adjusted)
        b_master = t.bwd[master]
        cum = 0.0
        for offset, s in enumerate(range(master + 1, 3), start=1):
            cum += t.fwd[s] + t.bwd[s]
            # Max-fill guarantees the bound wherever a single unit fits.
            if t.fwd[s] + t.bwd[s] <= b_master:
                assert cum <= offset * b_master + t.fwd[s] + t.bwd[s]


class TestSimCache:
    def test_clear_resets_entries_and_counters(self, gpt2_profile):
        from repro.core.planner import SimCache

        cache = SimCache()
        plan_partition(gpt2_profile, 4, 8, sim_cache=cache)
        assert cache.hits + cache.misses > 0
        cache.clear()
        assert cache.hits == 0
        assert cache.misses == 0
        assert cache.hit_rate == 0.0
        # a cleared cache re-simulates: first run after clear has no hits
        plan_partition(gpt2_profile, 4, 8, sim_cache=cache)
        assert cache.misses > 0

    def test_hit_rate_tracks_reuse(self, gpt2_profile):
        from repro.core.planner import SimCache

        cache = SimCache()
        plan_partition(gpt2_profile, 4, 8, sim_cache=cache)
        first_rate = cache.hit_rate
        plan_partition(gpt2_profile, 4, 8, sim_cache=cache)
        assert 0.0 <= first_rate <= cache.hit_rate <= 1.0


