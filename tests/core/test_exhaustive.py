"""Exhaustive-search oracle tests: the heuristic Planner's optimality gap."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core import exhaustive, planner
from repro.core.exhaustive import (
    count_partitions,
    exhaustive_partition,
    iter_partitions,
)
from repro.core.planner import SimCache, plan_partition

from tests.core.test_search_properties import make_profile

#: (bad integer argument, expected error) pairs shared by both search
#: entry points; the error message must name the argument.
BAD_COUNTS = [
    ("num_stages", True, TypeError),
    ("num_stages", 2.0, TypeError),
    ("num_stages", 0, ValueError),
    ("num_micro_batches", True, TypeError),
    ("num_micro_batches", 1.5, TypeError),
    ("num_micro_batches", 0, ValueError),
]


def assert_rejects_bad_counts(search, profile, bad_counts=BAD_COUNTS):
    """``search`` raises a typed error naming each malformed argument."""
    for name, value, error in bad_counts:
        kwargs = {"num_stages": 3, "num_micro_batches": 8, name: value}
        with pytest.raises(error, match=name):
            search(profile, **kwargs)


class TestEnumeration:
    def test_count_matches_enumeration(self):
        assert count_partitions(6, 3) == len(list(iter_partitions(6, 3)))
        assert count_partitions(6, 3) == 10  # C(5, 2)

    def test_all_partitions_valid(self):
        for sizes in iter_partitions(7, 3):
            assert sum(sizes) == 7
            assert all(s >= 1 for s in sizes)

    def test_single_stage(self):
        assert list(iter_partitions(5, 1)) == [(5,)]

    def test_invalid_args(self, tiny_profile):
        with pytest.raises(ValueError):
            list(iter_partitions(3, 4))
        with pytest.raises(ValueError):
            count_partitions(3, 0)
        assert_rejects_bad_counts(
            exhaustive_partition, tiny_profile, BAD_COUNTS + [
                ("jobs", 2, ValueError),
                ("jobs", 0, ValueError),
                ("jobs", True, TypeError),
                # Removed tuning keywords: the constants are the only
                # behaviour.
                ("prune_slack", 1.0, TypeError),
                ("chunk_size", 64, TypeError),
                ("planner_warm_start", True, TypeError),
                ("telemetry", False, TypeError),
                # The shared simulation memo is gone from the oracle.
                ("sim_cache", SimCache(), TypeError),
                # The space cap is None or a count like the others: NaN
                # must not switch it off, nor a float or bool pass as one.
                ("max_evaluations", float("nan"), TypeError),
                ("max_evaluations", 1.5, TypeError),
                ("max_evaluations", True, TypeError),
                ("max_evaluations", "x", TypeError),
                ("max_evaluations", 0, ValueError),
                ("max_evaluations", -1, ValueError),
                # A bool knob is a bool: "False" must not run the pruned
                # search by its truthiness.
                ("prune", "False", TypeError),
                ("prune", 0, TypeError),
                # The plan cache is gone; only cache=False is accepted.
                ("cache", None, TypeError),
                ("cache", True, TypeError),
            ],
        )
        # numpy integers are integers.
        ref = exhaustive_partition(tiny_profile, 3, 8)
        res = exhaustive_partition(tiny_profile, np.int64(3), np.int32(8))
        assert res.partition == ref.partition
        assert res.iteration_time == ref.iteration_time
        # jobs=1 and cache=False, the only accepted values, still search,
        # and a numpy bool is a bool.
        for kwargs in ({"jobs": 1}, {"cache": False},
                       {"prune": np.bool_(True)}):
            one = exhaustive_partition(tiny_profile, 3, 8, **kwargs)
            assert one.partition == ref.partition
            assert one.iteration_time == ref.iteration_time
        # A numpy integer cap is a cap.
        capped = exhaustive_partition(
            tiny_profile, 3, 8, max_evaluations=np.int64(ref.space)
        )
        assert capped.partition == ref.partition


class TestOracle:
    @pytest.mark.parametrize("stages,m", [(2, 4), (3, 6), (4, 8)])
    def test_heuristic_within_two_percent_of_optimum(
        self, tiny_profile, stages, m
    ):
        """The master-stage heuristic lands essentially on the optimum for
        the tiny model (16 blocks: small enough to brute-force)."""
        oracle = exhaustive_partition(tiny_profile, stages, m)
        heuristic = plan_partition(tiny_profile, stages, m)
        assert heuristic.iteration_time <= oracle.iteration_time * 1.02

    def test_heuristic_vastly_cheaper(self, tiny_profile):
        oracle = exhaustive_partition(tiny_profile, 4, 8)
        heuristic = plan_partition(tiny_profile, 4, 8)
        # Compare against the enumeration space: the pruned oracle itself
        # now simulates far fewer candidates than it enumerates.
        assert heuristic.evaluations < oracle.space / 5

    def test_oracle_never_above_algorithm1_seed(self, tiny_profile):
        from repro.core.analytic_sim import simulate_partition
        from repro.core.balance_dp import balanced_partition
        oracle = exhaustive_partition(tiny_profile, 3, 6)
        seed = balanced_partition(tiny_profile.block_times(), 3)
        seed_sim = simulate_partition(tiny_profile, seed, 6)
        assert oracle.iteration_time <= seed_sim.iteration_time + 1e-12

    def test_search_space_guard(self, gpt2_profile):
        with pytest.raises(ValueError, match="search space"):
            exhaustive_partition(
                gpt2_profile, 8, 8, max_evaluations=1000
            )


class TestPrunedEquivalence:
    @pytest.mark.parametrize("stages,m", [(2, 4), (3, 6), (4, 8)])
    @pytest.mark.parametrize("comm_mode", ["paper", "edges"])
    def test_pruned_matches_brute_force(
        self, tiny_profile, stages, m, comm_mode
    ):
        """Branch-and-bound returns the brute-force argmin bit-for-bit."""
        brute = exhaustive_partition(
            tiny_profile, stages, m, comm_mode=comm_mode, prune=False
        )
        pruned = exhaustive_partition(
            tiny_profile, stages, m, comm_mode=comm_mode, prune=True
        )
        assert pruned.partition.sizes == brute.partition.sizes
        assert pruned.iteration_time == brute.iteration_time
        assert pruned.space == brute.space
        assert pruned.evaluations <= brute.evaluations

    def test_pruned_actually_prunes(self, tiny_profile):
        pruned = exhaustive_partition(tiny_profile, 4, 8, prune=True)
        assert pruned.evaluations < pruned.space
        assert pruned.pruned > 0


class TestPrunedSearchExact:
    """The pruned search equals the brute force where its shortcuts fire."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=5, max_value=8),        # blocks
        st.integers(min_value=2, max_value=4),        # stages
        st.integers(min_value=1, max_value=6),        # micro-batches
        st.sampled_from(["paper", "edges"]),
        st.data(),
    )
    def test_zero_cost_profiles_equal_brute(
        self, blocks, stages, m, comm_mode, data
    ):
        # zeros included: the regime where distinct cuts share identical
        # stage-time tuples and the dominance memo can actually prune.
        times = st.sampled_from([0.0, 0.5, 1.0, 2.0])
        fwd = [data.draw(times, label="fwd") for _ in range(blocks)]
        bwd = [data.draw(times, label="bwd") for _ in range(blocks)]
        prof = make_profile(fwd, bwd, data.draw(st.sampled_from([0.0, 0.1])))
        pruned = exhaustive_partition(prof, stages, m, comm_mode=comm_mode)
        brute = exhaustive_partition(
            prof, stages, m, comm_mode=comm_mode, prune=False
        )
        assert pruned.iteration_time == brute.iteration_time
        assert pruned.partition.stages == brute.partition.stages

    def test_dominance_memo_fires_and_stays_exact(self):
        fwd = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0]
        bwd = [2.0, 0.0, 0.0, 2.0, 0.0, 2.0, 0.0, 0.0]
        prof = make_profile(fwd, bwd, 0.1)
        pruned = exhaustive_partition(prof, 4, 4)
        brute = exhaustive_partition(prof, 4, 4, prune=False)
        assert pruned.dominance_pruned > 0
        assert pruned.iteration_time == brute.iteration_time
        assert pruned.partition.stages == brute.partition.stages

    def test_dominance_memo_fires_on_one_zero_cost_block(self):
        """All ``(fwd, bwd)`` pairs differ, yet the zero-cost block is
        absorbed by any stage that holds it with its neighbour, so twin
        prefixes exist and the memo must drop them."""
        fwd = [1.0, 0.0, 2.0, 1.5, 1.1, 1.2, 0.7, 0.9]
        bwd = [2 * f for f in fwd]
        assert len(set(zip(fwd, bwd))) == len(fwd)
        prof = make_profile(fwd, bwd, 0.1)
        pruned = exhaustive_partition(prof, 4, 6)
        brute = exhaustive_partition(prof, 4, 6, prune=False)
        assert pruned.dominance_pruned > 0
        assert pruned.iteration_time == brute.iteration_time
        assert pruned.partition.stages == brute.partition.stages

    def test_seed_climb_preserves_argmin(self, monkeypatch):
        fwd = [0.8, 1.2, 1.0, 0.7, 1.1, 0.9, 1.3, 0.6, 1.0, 0.8]
        bwd = [1.6, 2.1, 1.9, 1.5, 2.2, 1.8, 2.4, 1.3, 2.0, 1.7]
        prof = make_profile(fwd, bwd, 0.05)
        # The 84-candidate space is far below the climb threshold;
        # lowering the threshold to 1 turns the climb on.  The planner
        # is no seed: calling it fails the search.
        base = exhaustive_partition(prof, 4, 6)

        def no_planner(*args, **kwargs):
            raise AssertionError("the oracle must not call the planner")

        assert not hasattr(exhaustive, "plan_partition")
        monkeypatch.setattr(planner, "plan_partition", no_planner)
        monkeypatch.setattr(exhaustive, "_CLIMB_MIN_SPACE", 1)
        tel = obs.Telemetry()
        with obs.session(tel):
            climbed = exhaustive_partition(prof, 4, 6)
        brute = exhaustive_partition(prof, 4, 6, prune=False)
        for res in (base, climbed):
            assert res.iteration_time == brute.iteration_time
            assert res.partition.stages == brute.partition.stages
        assert climbed.evaluations <= brute.evaluations
        (climb,) = [e[4] for e in tel.events if e[0] == "oracle.climb"]
        assert climb["rounds"] >= 1
        assert 0 < climb["cols"] <= climb["rounds"] * 4 * 3


class TestPruneSlack:
    """The pruning slack is the module constant ``_PRUNE_SLACK``; the
    searches read it at call time, so patching it studies tightness."""

    def test_rejects_invalid_slack(self, tiny_profile):
        # The slack is no longer an argument: any value, valid or not,
        # is an unknown keyword.  The constant itself is a valid slack.
        for bad in (0.0, 0.5, float("nan"), float("inf"), -1.0, 1.0):
            with pytest.raises(TypeError, match="prune_slack"):
                exhaustive_partition(tiny_profile, 3, 6, prune_slack=bad)
        assert 1.0 <= exhaustive._PRUNE_SLACK < float("inf")

    def test_exact_at_default_slack(self, tiny_profile, monkeypatch):
        brute = exhaustive_partition(tiny_profile, 3, 6, prune=False)
        default = exhaustive_partition(tiny_profile, 3, 6)
        monkeypatch.setattr(exhaustive, "_PRUNE_SLACK", 1.0)
        tight = exhaustive_partition(tiny_profile, 3, 6)
        for res in (default, tight):
            assert res.iteration_time == brute.iteration_time
            assert res.partition.sizes == brute.partition.sizes

    def test_loose_slack_prunes_more_never_worse_than_slack(
        self, tiny_profile, monkeypatch
    ):
        """With slack s the returned time is within s of the optimum (the
        incumbent is only ever discarded against bound * s)."""
        brute = exhaustive_partition(tiny_profile, 4, 8, prune=False)
        for slack in (1.05, 1.25):
            monkeypatch.setattr(exhaustive, "_PRUNE_SLACK", slack)
            loose = exhaustive_partition(tiny_profile, 4, 8)
            assert loose.evaluations <= brute.evaluations
            assert loose.iteration_time <= brute.iteration_time * slack


class TestOracleMemory:
    def test_deep_search_streams_its_leaf_level(self, monkeypatch):
        """The analytic search keeps its levels as index arrays and
        scores the leaf level chunk by chunk, so a depth-12 search over
        ~700k admitted columns (gpt2-762m, micro-batch 2, m=24) peaks
        under 96 MB of traced allocation (~69 MiB measured).  Holding the
        whole leaf level as ``(p, K)`` cost matrices would take ~500 MB.
        The leaf bounds prune all but the probe's columns, so the kernel
        scores under a tenth of them.  The seed climb would shrink that
        leaf level to a few thousand columns, so it is switched off to
        keep the shape deep."""
        import tracemalloc

        from repro import DEFAULT_CLUSTER_HW, TrainConfig, get_model
        from repro.profiling import profile_model

        monkeypatch.setattr(exhaustive, "_CLIMB_MIN_SPACE", float("inf"))
        profile = profile_model(
            get_model("gpt2-762m"), DEFAULT_CLUSTER_HW,
            TrainConfig(micro_batch_size=2, global_batch_size=2),
        )
        tel = obs.Telemetry()
        tracemalloc.start()
        try:
            with obs.session(tel):
                result = exhaustive_partition(
                    profile, 12, 24, max_evaluations=None,
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        levels = [e[4] for e in tel.events if e[0] == "oracle.level"]
        admitted = levels[-1]["admitted"]
        assert admitted > 300_000  # the shape is still deep
        assert result.evaluations < admitted // 10
        assert peak <= 96 * 2**20
