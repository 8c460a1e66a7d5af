"""Multiprocess oracle: bit-identity with the serial search.

The contract the ISSUE demands: ``exhaustive_partition(jobs=N)`` returns
the *bit-identical* argmin of the serial search — same partition, same
iteration time — for every search mode (pruned, brute, robust) and both
comm models.  The shared incumbent bound
only ever tightens pruning; every published bound is itself a simulated
candidate, and the deterministic merge reuses the serial tie-break, so
worker count and scheduling order must never leak into the result.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exhaustive import ExhaustiveResult, exhaustive_partition
from repro.core.parallel_search import (
    CandidatePool,
    default_plan_jobs,
    resolve_plan_jobs,
    set_default_plan_jobs,
)
from repro.core.partition import StageTimes
from repro.core.planner import SimCache, plan_partition
from repro.core.analytic_sim import PipelineSim
from repro.robustness import RobustObjective, StageCostNoise

from tests.core.test_search_properties import make_profile

_TIE_HEAVY = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])

#: a fixed tie-heavy profile: many partitions share the optimum, so any
#: merge-order dependence would show up as a different tie-break winner.
_FWD = [1.0, 2.0, 1.5, 0.5, 3.0, 1.0, 2.0, 0.5, 1.5, 1.0, 2.0, 1.0]
_BWD = [2.0, 1.0, 0.5, 1.5, 1.0, 3.0, 0.5, 2.0, 1.0, 1.5, 1.0, 2.0]


def _assert_same(parallel: ExhaustiveResult, serial: ExhaustiveResult):
    assert parallel.partition.sizes == serial.partition.sizes
    assert parallel.iteration_time == serial.iteration_time  # bitwise
    assert parallel.robust_value == serial.robust_value
    assert parallel.sim.iteration_time == serial.sim.iteration_time


class TestOracleBitIdentity:
    @pytest.mark.parametrize("comm_mode", ["paper", "edges"])
    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_matches_serial(self, comm_mode, prune, jobs):
        profile = make_profile(_FWD, _BWD, 0.25)
        kwargs = dict(comm_mode=comm_mode, prune=prune)
        serial = exhaustive_partition(profile, 5, 8, **kwargs)
        parallel = exhaustive_partition(profile, 5, 8, jobs=jobs, **kwargs)
        _assert_same(parallel, serial)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_brute_force_matches_serial(self, jobs):
        profile = make_profile(_FWD[:8], _BWD[:8], 0.5)
        serial = exhaustive_partition(profile, 3, 6, prune=False)
        parallel = exhaustive_partition(profile, 3, 6, prune=False, jobs=jobs)
        _assert_same(parallel, serial)
        # Brute force simulates the whole space in both drivers.
        assert parallel.evaluations == serial.evaluations

    def test_robust_matches_serial(self):
        profile = make_profile(_FWD[:9], _BWD[:9], 0.25)
        robust = RobustObjective(
            (StageCostNoise(sigma=0.1),), draws=16, seed=3
        )
        serial = exhaustive_partition(profile, 4, 6, robust=robust)
        parallel = exhaustive_partition(profile, 4, 6, robust=robust, jobs=2)
        _assert_same(parallel, serial)
        assert parallel.robust_value is not None

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_random_profiles(self, data):
        """Random tie-saturated profiles: jobs=2 equals serial exactly."""
        n = data.draw(st.integers(min_value=5, max_value=9))
        p = data.draw(st.integers(min_value=2, max_value=min(n, 4)))
        m = data.draw(st.integers(min_value=1, max_value=8))
        comm_mode = data.draw(st.sampled_from(["paper", "edges"]))
        fwd = [data.draw(_TIE_HEAVY) for _ in range(n)]
        bwd = [data.draw(_TIE_HEAVY) for _ in range(n)]
        profile = make_profile(fwd, bwd, 0.25)
        serial = exhaustive_partition(profile, p, m, comm_mode=comm_mode)
        parallel = exhaustive_partition(
            profile, p, m, comm_mode=comm_mode, jobs=2
        )
        _assert_same(parallel, serial)

    def test_observability_fields(self):
        profile = make_profile(_FWD, _BWD, 0.25)
        serial = exhaustive_partition(profile, 5, 8)
        parallel = exhaustive_partition(profile, 5, 8, jobs=4)
        assert serial.jobs == 1 and serial.worker_subtrees == ()
        if parallel.jobs > 1:  # pool available in this environment
            assert sum(parallel.worker_subtrees) == len(_FWD) - 5 + 1
            assert parallel.worker_subtrees == tuple(
                sorted(parallel.worker_subtrees, reverse=True)
            )
        assert serial.search_seconds > 0.0
        assert serial.sims_per_second > 0.0

    def test_jobs_one_is_serial(self):
        profile = make_profile(_FWD[:8], _BWD[:8], 0.25)
        a = exhaustive_partition(profile, 4, 4)
        b = exhaustive_partition(profile, 4, 4, jobs=1)
        _assert_same(b, a)
        assert b.jobs == 1


class TestPlannerBitIdentity:
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_matches_serial_including_history(self, jobs):
        profile = make_profile(_FWD, _BWD, 0.25)
        serial = plan_partition(profile, 5, 8, keep_history=True)
        parallel = plan_partition(profile, 5, 8, keep_history=True, jobs=jobs)
        assert parallel.partition.sizes == serial.partition.sizes
        assert parallel.iteration_time == serial.iteration_time
        assert parallel.evaluations == serial.evaluations
        assert parallel.history == serial.history

    def test_sim_cache_counters_match(self):
        """Prefetch must not change what the shared memo observes."""
        profile = make_profile(_FWD[:10], _BWD[:10], 0.5)
        a, b = SimCache(), SimCache()
        plan_partition(profile, 4, 8, sim_cache=a)
        plan_partition(profile, 4, 8, sim_cache=b, jobs=3)
        assert (a.hits, a.misses) == (b.hits, b.misses)


class TestCandidatePool:
    def test_matches_scalar_sim(self):
        waves = [
            StageTimes((1.0, 2.0), (2.0, 1.0), 0.25),
            StageTimes((1.5, 1.5), (1.0, 2.5), 0.25),
            StageTimes((3.0, 0.5), (0.5, 3.0), 0.25),
        ]
        with CandidatePool(jobs=2) as pool:
            sims = pool.evaluate(waves, 6, "paper")
        for times, sim in zip(waves, sims):
            scalar = PipelineSim(times, 6, comm_mode="paper").run()
            assert sim.iteration_time == scalar.iteration_time
            assert sim.startup_overhead == scalar.startup_overhead

    def test_single_wave_runs_inline(self):
        with CandidatePool(jobs=2) as pool:
            [sim] = pool.evaluate(
                [StageTimes((1.0,), (2.0,), 0.0)], 4, "paper"
            )
        assert sim.iteration_time == PipelineSim(
            StageTimes((1.0,), (2.0,), 0.0), 4
        ).run().iteration_time

    def test_jobs_one_is_inactive(self):
        pool = CandidatePool(jobs=1)
        assert not pool.active
        pool.close()


class TestDefaults:
    def test_resolve_and_set(self):
        assert default_plan_jobs() == 1
        assert resolve_plan_jobs(None) == 1
        assert resolve_plan_jobs(3) == 3
        try:
            set_default_plan_jobs(4)
            assert resolve_plan_jobs(None) == 4
        finally:
            set_default_plan_jobs(1)

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            set_default_plan_jobs(0)
        with pytest.raises(ValueError):
            resolve_plan_jobs(0)
        with pytest.raises(ValueError):
            exhaustive_partition(
                make_profile(_FWD[:6], _BWD[:6], 0.1), 2, 4, jobs=0
            )
