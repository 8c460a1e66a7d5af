"""Persistent plan cache: warm replay, keying, and cross-process sharing."""

import os
import pickle
import subprocess
import sys
import time

from repro.core.analytic_sim import PipelineSim
from repro.core.exhaustive import ExhaustiveResult, exhaustive_partition
from repro.core.partition import StageTimes
from repro.core.plan_cache import (
    PlanCache,
    code_fingerprint,
    default_plan_cache,
    profile_hash,
    resolve_plan_cache,
    set_default_plan_cache,
)
from repro.core.planner import PlannerResult, plan_partition
from repro.robustness import RobustObjective, StageCostNoise

from tests.conftest import run_with_edited_package
from tests.core.test_search_properties import make_profile

_FWD = [1.0, 2.0, 1.5, 0.5, 3.0, 1.0, 2.0, 0.5, 1.5, 1.0]
_BWD = [2.0, 1.0, 0.5, 1.5, 1.0, 3.0, 0.5, 2.0, 1.0, 1.5]


def _profile():
    return make_profile(_FWD, _BWD, 0.25)


class TestWarmReplay:
    def test_exhaustive_replays_bit_identical(self, tmp_path):
        cache = PlanCache(tmp_path)
        profile = _profile()
        cold = exhaustive_partition(profile, 4, 8, cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        assert len(cache) == 1
        warm = exhaustive_partition(profile, 4, 8, cache=cache)
        assert cache.hits == 1
        assert warm == cold  # the exact stored object, statistics and all

    def test_planner_replays_bit_identical(self, tmp_path):
        cache = PlanCache(tmp_path)
        profile = _profile()
        cold = plan_partition(profile, 4, 8, cache=cache)
        warm = plan_partition(profile, 4, 8, cache=cache)
        assert cache.hits == 1
        assert warm == cold

    def test_sim_result_pickle_rebuilds_op_times_bitwise(self):
        """A fresh SimResult pickles without per-op times; the unpickled
        copy rebuilds ``op_start``/``op_end`` lazily, bit for bit."""
        times = StageTimes((1.0, 0.3, 2.5), (2.0, 0.7, 1.1), 0.25)
        for comm_mode in ("paper", "edges"):
            fresh = PipelineSim(times, 7, comm_mode=comm_mode).run()
            copy = pickle.loads(pickle.dumps(fresh))
            assert "_op_times" not in copy.__dict__
            assert copy == fresh
            assert copy.comm_mode == comm_mode
            # the rebuilt views agree with the scalars the run returned
            assert copy.op_end[("B", 0, 6)].hex() == fresh.iteration_time.hex()
            assert copy.op_start[("F", 2, 0)].hex() == (
                fresh.startup_overhead.hex()
            )
            for got, want in (
                (copy.op_start, fresh.op_start), (copy.op_end, fresh.op_end),
            ):
                assert list(got) == list(want)
                assert [v.hex() for v in got.values()] == [
                    v.hex() for v in want.values()
                ]

    def test_warm_hit_runs_no_simulations(self, tmp_path):
        """A hit must not touch the simulator: zero new evaluations."""
        cache = PlanCache(tmp_path)
        profile = _profile()
        exhaustive_partition(profile, 4, 8, cache=cache)
        from repro.core import analytic_sim

        calls = []
        orig = analytic_sim.PipelineSim.run

        def counting(self):
            calls.append(1)
            return orig(self)

        analytic_sim.PipelineSim.run = counting
        try:
            warm = exhaustive_partition(profile, 4, 8, cache=cache)
        finally:
            analytic_sim.PipelineSim.run = orig
        assert warm.partition.sizes
        assert not calls


class TestKeying:
    def test_knobs_separate_entries(self, tmp_path):
        cache = PlanCache(tmp_path)
        profile = _profile()
        a = exhaustive_partition(profile, 4, 8, cache=cache)
        b = exhaustive_partition(profile, 4, 8, prune=False, cache=cache)
        assert len(cache) == 2
        assert a.partition.sizes == b.partition.sizes  # same argmin

    def test_profile_hash_is_content_sensitive(self):
        assert profile_hash(_profile()) == profile_hash(_profile())
        other = make_profile(_FWD, _BWD, 0.5)
        assert profile_hash(_profile()) != profile_hash(other)
        assert len(code_fingerprint()) == 64

    def test_schema_2_entry_is_a_miss(self, tmp_path, monkeypatch):
        """Entries written before ``ExhaustiveResult`` changed shape never
        replay: schema "2" (keyed with the since-deleted ``incremental``/
        ``scorer`` knobs), schema "3" (results that still carried
        worker-process fields) and schema "4" (keyed with the
        since-removed warm-start, chunk and slack settings) all miss, and
        the search re-solves."""
        import dataclasses

        import repro.core.plan_cache as pc

        profile = _profile()
        fresh = exhaustive_partition(profile, 4, 8, cache=False)
        stale = dataclasses.replace(fresh, evaluations=-1)
        knobs = dict(
            comm_mode="paper", prune=True, planner_warm_start=None,
            chunk_size=1024, prune_slack=1.0 + 1e-9, robust=repr(None),
        )
        for schema in ("2", "3", "4"):
            cache = PlanCache(tmp_path / schema)
            with monkeypatch.context() as patch:
                patch.setattr(pc, "_SCHEMA", schema)
                for old in ({}, {"incremental": True, "scorer": "analytic"}):
                    cache.store(
                        cache.exhaustive_key(profile, 4, 8, **knobs, **old),
                        stale,
                    )
            result = exhaustive_partition(profile, 4, 8, cache=cache)
            assert (cache.hits, cache.misses) == (0, 1), schema
            assert result.evaluations == fresh.evaluations
            assert len(cache) == 3

    def test_wrong_type_is_a_miss(self, tmp_path):
        cache = PlanCache(tmp_path)
        profile = _profile()
        key = cache.exhaustive_key(profile, 4, 8)
        cache.store(key, {"not": "a result"})
        assert cache.load(key, expect=ExhaustiveResult) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = PlanCache(tmp_path)
        key = cache.planner_key(_profile(), 4, 8)
        cache.store(key, PlannerResult)  # placeholder, then corrupt it
        (tmp_path / f"{key}.pkl").write_bytes(b"\x80garbage")
        assert cache.load(key) is None
        assert cache.misses == 1


class TestLifecycle:
    def test_purge(self, tmp_path):
        cache = PlanCache(tmp_path)
        profile = _profile()
        exhaustive_partition(profile, 4, 8, cache=cache)
        plan_partition(profile, 4, 8, cache=cache)
        assert len(cache) == 2
        assert cache.purge() == 2
        assert len(cache) == 0
        assert cache.purge() == 0

    def test_default_resolution(self, tmp_path):
        assert default_plan_cache() is None
        assert resolve_plan_cache(None) is None
        bound = PlanCache(tmp_path)
        try:
            set_default_plan_cache(bound)
            assert resolve_plan_cache(None) is bound
            assert resolve_plan_cache(False) is None
            # cache=False forces one call uncached despite the default.
            plan_partition(_profile(), 3, 4, cache=False)
            assert len(bound) == 0
        finally:
            set_default_plan_cache(None)


class TestCrossProcess:
    def test_plan_written_by_another_process_replays(self, tmp_path):
        """A subprocess solves and stores; this process replays the exact
        same object — the cluster-wide sharing the cache exists for."""
        script = (
            "from tests.core.test_plan_cache import _profile\n"
            "from repro.core.plan_cache import PlanCache\n"
            "from repro.core.exhaustive import exhaustive_partition\n"
            f"cache = PlanCache({str(tmp_path)!r})\n"
            "r = exhaustive_partition(_profile(), 4, 8, cache=cache)\n"
            "print(repr(r.partition.sizes))\n"
            "print(repr(r.iteration_time))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH", ""), os.getcwd()) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.splitlines()
        cache = PlanCache(tmp_path)
        warm = exhaustive_partition(_profile(), 4, 8, cache=cache)
        assert (cache.hits, cache.misses) == (1, 0)
        assert repr(warm.partition.sizes) == out[0]
        assert repr(warm.iteration_time) == out[1]  # bitwise across processes

    def test_edited_analytic_kernel_invalidates_replay(self, tmp_path):
        """A subprocess whose frontier-kernel *source* differs stores under
        a different code fingerprint, so this process gets a miss — an
        edit to ``repro.sim.analytic`` (the default oracle scorer) must
        invalidate cached plans exactly like an edit to the search."""
        cache_dir = tmp_path / "cache"
        out = run_with_edited_package(tmp_path, "sim/analytic.py", (
            "import repro.core.plan_cache as pc\n"
            "from tests.core.test_plan_cache import _profile\n"
            "from repro.core.exhaustive import exhaustive_partition\n"
            f"cache = pc.PlanCache({str(cache_dir)!r})\n"
            "exhaustive_partition(_profile(), 4, 8, cache=cache)\n"
            "print(pc.code_fingerprint())\n"
        )).strip()
        assert code_fingerprint() != out
        cache = PlanCache(cache_dir)
        assert len(cache) == 1
        exhaustive_partition(_profile(), 4, 8, cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        assert len(cache) == 2  # stored under this process's fingerprint

    def test_edited_perturbation_model_invalidates_robust_replay(
        self, tmp_path
    ):
        """Robust plans depend on the perturbation draws: a subprocess
        whose ``robustness/perturbation.py`` differs stores its robust
        plans where this process never replays them."""
        cache_dir = tmp_path / "cache"
        objective = (
            "RobustObjective((StageCostNoise(0.15),), draws=16, seed=3)"
        )
        out = run_with_edited_package(tmp_path, "robustness/perturbation.py", (
            "import repro.core.plan_cache as pc\n"
            "from repro.core.planner import plan_partition\n"
            "from repro.robustness import RobustObjective, StageCostNoise\n"
            "from tests.core.test_plan_cache import _profile\n"
            f"cache = pc.PlanCache({str(cache_dir)!r})\n"
            f"plan_partition(_profile(), 4, 8, robust={objective},"
            " cache=cache)\n"
            "print(pc.code_fingerprint())\n"
        )).strip()
        assert code_fingerprint() != out
        cache = PlanCache(cache_dir)
        assert len(cache) == 1
        robust = RobustObjective((StageCostNoise(0.15),), draws=16, seed=3)
        fresh = plan_partition(_profile(), 4, 8, robust=robust, cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        assert len(cache) == 2
        assert fresh.robust_value is not None

    def test_atomic_store_leaves_no_temp_files(self, tmp_path):
        cache = PlanCache(tmp_path)
        cache.store(cache.planner_key(_profile(), 2, 2), {"x": 1})
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp")]
        assert not leftovers

    def test_concurrent_writers_never_expose_a_torn_entry(self, tmp_path):
        """Two processes ``store`` the same key in a loop while this one
        ``load``s it: every load is a miss or one writer's intact value,
        and no temp file outlives the writers."""
        cache = PlanCache(tmp_path)
        key = cache.planner_key(_profile(), 2, 2)
        go = tmp_path / "go"
        script = (
            "import os, sys, time\n"
            "from repro.core.plan_cache import PlanCache\n"
            "writer = int(sys.argv[1])\n"
            f"cache = PlanCache({str(tmp_path)!r})\n"
            f"while not os.path.exists({str(go)!r}):\n"
            "    time.sleep(0.001)\n"
            "for i in range(200):\n"
            "    cache.store(sys.argv[2], {'writer': writer, 'i': i,\n"
            "                'payload': bytes([writer]) * 200_000})\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH", ""), os.getcwd()) if p
        )
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(w), key], env=env,
            )
            for w in (1, 2)
        ]
        go.touch()
        loads = []
        deadline = time.monotonic() + 120
        try:
            while (any(w.poll() is None for w in writers)
                   and time.monotonic() < deadline):
                loads.append(cache.load(key))
            codes = [w.wait(timeout=10) for w in writers]
        finally:
            for w in writers:
                if w.poll() is None:
                    w.kill()
                    w.wait()
        assert codes == [0, 0]
        loads.append(cache.load(key))
        hits = [v for v in loads if v is not None]
        assert hits and loads[-1] is not None
        for value in hits:
            assert value["payload"] == bytes([value["writer"]]) * 200_000
            assert value["writer"] in (1, 2) and 0 <= value["i"] < 200
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
