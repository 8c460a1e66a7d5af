"""Telemetry can never change a plan: on vs off bit-identity.

Every search entry point runs twice — once with no registry installed,
once recording into a fresh :class:`~repro.obs.Telemetry` installed
with :func:`repro.obs.session` — and the
returned partitions, iteration times, argmins and tie-breaks must match
bit for bit.  The counters the instrumented run folds must equal the
result object's own fields exactly (they are folded *from* those
fields, so disagreement means double counting).
"""

import pytest

from repro import obs
from repro.core import exhaustive
from repro.core.exhaustive import exhaustive_partition
from repro.core.planner import SimCache, plan_partition
from repro.experiments.common import run_cells
from repro.robustness.evaluate import RobustObjective
from repro.robustness.perturbation import StageCostNoise


def _recorded(search, *args, **kwargs):
    """``(registry, result)`` of one search recorded in a fresh session."""
    tel = obs.Telemetry()
    with obs.session(tel):
        result = search(*args, **kwargs)
    return tel, result


def _assert_same_plan(a, b):
    assert a.partition == b.partition
    assert a.iteration_time == b.iteration_time
    assert a.evaluations == b.evaluations


class TestPlannerBitIdentity:
    @pytest.mark.parametrize("granularity", ["sublayer", "layer"])
    def test_plan_identical_on_vs_off(self, tiny_profile, granularity):
        off = plan_partition(tiny_profile, 4, 16, granularity=granularity)
        _, on = _recorded(
            plan_partition, tiny_profile, 4, 16, granularity=granularity,
        )
        _assert_same_plan(off, on)
        assert on.incumbent_updates == off.incumbent_updates

    def test_counters_fold_from_result_fields(self, tiny_profile):
        tel, result = _recorded(plan_partition, tiny_profile, 4, 16)
        assert tel.counters["planner.plans"] == 1
        assert tel.counters["planner.evaluations"] == result.evaluations
        assert tel.counters["planner.search_seconds"] == (
            result.search_seconds
        )
        assert tel.counters["planner.incumbent_updates"] == (
            result.incumbent_updates
        )

    def test_sim_cache_counters_match_cache_deltas(self, tiny_profile):
        cache = SimCache()
        tel, _ = _recorded(plan_partition, tiny_profile, 4, 16,
                           sim_cache=cache)
        assert tel.counters["planner.sim_cache.hits"] == cache.hits
        assert tel.counters["planner.sim_cache.misses"] == cache.misses

    def test_telemetry_false_forces_off(self, tiny_profile):
        """Uninstalling the registry inside an outer session turns
        recording off for the calls it wraps; the plan is unchanged."""
        ref = plan_partition(tiny_profile, 4, 8)
        tel = obs.Telemetry()
        with obs.session(tel):
            obs.set_current(None)
            try:
                off = plan_partition(tiny_profile, 4, 8)
            finally:
                obs.set_current(tel)
        assert tel.events == [] and tel.counters == {}
        _assert_same_plan(ref, off)
        with pytest.raises(TypeError, match="telemetry"):
            plan_partition(tiny_profile, 4, 8, telemetry=False)

    def test_session_scoped_recording(self, tiny_profile):
        tel = obs.Telemetry()
        with obs.session(tel):
            plan_partition(tiny_profile, 4, 8)
        assert "planner.plan" in {e[0] for e in tel.events}


class TestOracleBitIdentity:
    MODES = {
        "analytic": {},
        "brute": {"prune": False},
    }

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_search_identical_on_vs_off(self, tiny_profile, mode):
        kwargs = self.MODES[mode]
        off = exhaustive_partition(tiny_profile, 3, 8, **kwargs)
        _, on = _recorded(exhaustive_partition, tiny_profile, 3, 8, **kwargs)
        _assert_same_plan(off, on)
        assert on.pruned == off.pruned
        assert on.dominance_pruned == off.dominance_pruned

    def test_counters_fold_from_result_fields(self, tiny_profile):
        tel, result = _recorded(exhaustive_partition, tiny_profile, 3, 8)
        assert tel.counters["oracle.searches"] == 1
        assert tel.counters["oracle.evaluations"] == result.evaluations
        assert tel.counters["oracle.space"] == result.space
        assert tel.counters["oracle.search_seconds"] == (
            result.search_seconds
        )
        assert tel.counters["oracle.pruned"] == result.pruned
        assert tel.counters["oracle.incumbent_updates"] == (
            result.incumbent_updates
        )

    def test_search_span_carries_mode_and_space(self, tiny_profile):
        tel, result = _recorded(exhaustive_partition, tiny_profile, 3, 8)
        (span,) = [e for e in tel.events if e[0] == "oracle.search"]
        assert span[4]["mode"] == "analytic"
        assert span[4]["space"] == result.space

    def test_level_spans_carry_prune_counts(self, tiny_profile):
        """One ``oracle.level`` span per level of the analytic search; the
        last level fits in the probe, so its admitted count is every
        column the kernel scores."""
        tel, _ = _recorded(exhaustive_partition, tiny_profile, 4, 8)
        levels = [e[4] for e in tel.events if e[0] == "oracle.level"]
        assert [lv["level"] for lv in levels] == [0, 1, 2]
        assert all(0 < lv["prefixes"] <= lv["admitted"] for lv in levels)
        cols = sum(
            e[4]["cols"] for e in tel.events if e[0] == "oracle.kernel_sweep"
        )
        assert levels[-1]["admitted"] == cols

    def test_probe_span_counts_scored_columns(
        self, tiny_profile, monkeypatch
    ):
        """With a two-column probe, the ``oracle.probe`` span splits the
        scored columns into probe and survivors, and the incumbent only
        tightens across it."""
        monkeypatch.setattr(exhaustive, "_PROBE_COLS", 2)
        tel, result = _recorded(exhaustive_partition, tiny_profile, 4, 8)
        (probe,) = [e[4] for e in tel.events if e[0] == "oracle.probe"]
        admitted = [
            e[4]["admitted"] for e in tel.events if e[0] == "oracle.level"
        ][-1]
        cols = sum(
            e[4]["cols"] for e in tel.events if e[0] == "oracle.kernel_sweep"
        )
        assert probe["cols"] == 2
        assert probe["cols"] + probe["survivors"] == cols <= admitted
        assert probe["incumbent_after"] <= probe["incumbent_before"]
        assert probe["incumbent_after"] >= result.iteration_time

    def test_robust_identical_on_vs_off(self, tiny_profile, monkeypatch):
        self._check_robust(tiny_profile, monkeypatch, prune=True)

    def test_robust_enumeration_identical_on_vs_off(
        self, tiny_profile, monkeypatch
    ):
        self._check_robust(tiny_profile, monkeypatch, prune=False)

    @staticmethod
    def _check_robust(tiny_profile, monkeypatch, prune):
        objective = RobustObjective(
            models=(StageCostNoise(sigma=0.05),), draws=16, seed=3,
        )
        # A 16-column probe is one candidate under 16 draws, so the
        # pruned path's bounds drop most of the space; the climb is
        # forced on so that it records its span too.  The enumeration
        # flushes in 16-row (one-candidate) chunks.
        monkeypatch.setattr(exhaustive, "_PROBE_COLS", 16)
        monkeypatch.setattr(exhaustive, "_CLIMB_MIN_SPACE", 1)
        monkeypatch.setattr(exhaustive, "_DEFAULT_CHUNK", 16)
        kwargs = dict(robust=objective, prune=prune)
        off = exhaustive_partition(tiny_profile, 3, 8, **kwargs)
        tel, on = _recorded(exhaustive_partition, tiny_profile, 3, 8, **kwargs)
        _assert_same_plan(off, on)
        assert on.robust_value == off.robust_value
        assert on.pruned == off.pruned
        names = {e[0] for e in tel.events}
        assert tel.counters["oracle.pruned"] == on.pruned
        (span,) = [e for e in tel.events if e[0] == "oracle.search"]
        assert span[4]["mode"] == ("robust" if prune else "robust_brute")
        if prune:
            # The nominal search's spans, each kernel sweep scoring its
            # columns under every draw.
            assert {
                "oracle.climb", "oracle.level", "oracle.probe",
                "oracle.kernel_sweep",
            } <= names
            assert not {"robust.objective_batch", "oracle.chunk_flush"} & names
            sweeps = [
                e[4] for e in tel.events if e[0] == "oracle.kernel_sweep"
            ]
            assert {s["draws"] for s in sweeps} == {16}
            (probe,) = [e[4] for e in tel.events if e[0] == "oracle.probe"]
            assert probe["cols"] == 1
            assert probe["cols"] + probe["survivors"] == sum(
                s["cols"] for s in sweeps
            )
            assert on.pruned > 0
        else:
            assert {"robust.objective_batch", "oracle.chunk_flush"} <= names
            assert tel.counters["robust.candidates"] == on.evaluations
            assert tel.counters["robust.draw_sims"] == 16 * on.evaluations
            assert on.pruned == 0


class TestSinkDirectory:
    def test_summary_counters_match_result_exactly(self, tiny_profile,
                                                   tmp_path):
        run = tmp_path / "run"
        tel, result = _recorded(exhaustive_partition, tiny_profile, 3, 8)
        tel.write(run)
        summary = (run / "summary.txt").read_text()
        assert f"{result.evaluations}" in summary
        assert f"{result.space}" in summary


class TestThinViews:
    def test_result_rates_use_obs_formulas(self, tiny_profile):
        from repro.obs.stats import hit_rate, rate

        result = exhaustive_partition(tiny_profile, 3, 8)
        assert result.sims_per_second == rate(
            result.evaluations, result.search_seconds
        )
        planned = plan_partition(tiny_profile, 4, 8)
        assert planned.sims_per_second == rate(
            planned.evaluations, planned.search_seconds
        )
        cache = SimCache()
        plan_partition(tiny_profile, 4, 8, sim_cache=cache)
        assert cache.hit_rate == hit_rate(cache.hits, cache.misses)


class TestSweepRunner:
    def test_sweep_identical_on_vs_off(self):
        """``run_cells`` returns the same cells with telemetry on or off
        and records its ``sweep.run`` and ``sweep.cell`` spans."""
        cells = [(i,) for i in range(4)]
        off = run_cells(_square, cells)
        tel = obs.Telemetry()
        with obs.session(tel):
            on = run_cells(_square, cells)
        assert on == off
        names = {e[0] for e in tel.events}
        assert "sweep.run" in names and "sweep.cell" in names


def _square(x):
    return x * x
