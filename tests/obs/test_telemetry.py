"""Telemetry core: spans, counters, sessions, sinks and the report."""

import json

import pytest

from repro import obs
from repro.obs import telemetry as telemetry_mod


class TestDisabledPath:
    def test_no_registry_by_default(self):
        assert obs.current() is None
        assert not obs.active()

    def test_span_is_shared_noop_singleton(self):
        a = obs.span("anything", key=1)
        b = obs.span("else")
        assert a is b is obs.NOOP_SPAN
        with a:
            pass  # records nothing, raises nothing

    def test_add_is_noop(self):
        obs.add("some.counter", 5)  # must not raise, must not leak state
        assert obs.current() is None


class TestRecording:
    def test_span_records_event(self):
        tel = obs.Telemetry()
        with obs.session(tel):
            with obs.span("unit.op", depth=4):
                pass
        (event,) = tel.events
        name, ts, dur, lane, attrs = event
        assert name == "unit.op"
        assert dur >= 0 and lane == 0
        assert attrs == {"depth": 4}

    def test_clock_record_since_pair(self):
        tel = obs.Telemetry()
        t0 = tel.clock()
        tel.record_since("unit.hot", t0, rows=3)
        (event,) = tel.events
        assert event[0] == "unit.hot" and event[4] == {"rows": 3}

    def test_timestamps_are_wall_aligned(self):
        import time

        tel = obs.Telemetry()
        before = time.time_ns()
        with tel.span("unit.op"):
            pass
        after = time.time_ns()
        (_, ts, dur, _, _) = tel.events[0]
        assert before - 1_000_000 <= ts <= after + 1_000_000

    def test_nested_spans_both_recorded(self):
        tel = obs.Telemetry()
        with obs.session(tel):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        names = [e[0] for e in tel.events]
        # Inner closes first (append order), both events present.
        assert names == ["inner", "outer"]

    def test_counters_accumulate(self):
        tel = obs.Telemetry()
        with obs.session(tel):
            obs.add("c.hits")
            obs.add("c.hits", 2)
            tel.add("c.misses", 3)
        assert tel.counters == {"c.hits": 3, "c.misses": 3}

    def test_set_gauge_overwrites(self):
        tel = obs.Telemetry()
        tel.set_gauge("g", 1)
        tel.set_gauge("g", 7)
        assert tel.counters["g"] == 7

class TestSession:
    def test_installs_and_restores(self):
        tel = obs.Telemetry()
        assert obs.current() is None
        with obs.session(tel):
            assert obs.current() is tel
        assert obs.current() is None

    def test_none_is_passthrough(self):
        outer = obs.Telemetry()
        with obs.session(outer):
            with obs.session(None):
                assert obs.current() is outer
            assert obs.current() is outer

    def test_reentry_with_same_registry_is_harmless(self):
        tel = obs.Telemetry()
        with obs.session(tel):
            with obs.session(tel):
                obs.add("x")
            assert obs.current() is tel
        assert obs.current() is None
        assert tel.counters == {"x": 1}

    def test_restores_on_exception(self):
        tel = obs.Telemetry()
        with pytest.raises(RuntimeError):
            with obs.session(tel):
                raise RuntimeError("boom")
        assert obs.current() is None

    def test_set_current(self):
        tel = obs.Telemetry()
        try:
            assert obs.set_current(tel) is tel
            assert obs.current() is tel
        finally:
            obs.set_current(None)


class TestSinks:
    def _run(self):
        tel = obs.Telemetry(label="main")
        with tel.span("search.outer", depth=8):
            with tel.span("search.inner"):
                pass
        tel.add("search.hits", 3)
        tel.add("search.misses", 1)
        return tel

    def test_write_and_load_round_trip(self, tmp_path):
        tel = self._run()
        tel.write(tmp_path)
        events, counters, lanes = obs.load_run(tmp_path)
        assert events == tel.events
        assert counters == tel.counters
        assert lanes == tel.lanes

    def test_write_produces_all_sinks(self, tmp_path):
        self._run().write(tmp_path)
        for name in ("events.jsonl", "counters.json", "trace.json",
                     "summary.txt"):
            assert (tmp_path / name).exists(), name

    def test_events_jsonl_has_meta_header(self, tmp_path):
        self._run().write(tmp_path)
        first = json.loads((tmp_path / "events.jsonl").read_text()
                           .splitlines()[0])
        assert first["meta"]["schema"] == telemetry_mod.SCHEMA

    def test_rewrite_replaces_events(self, tmp_path):
        tel = self._run()
        tel.write(tmp_path)
        tel.write(tmp_path)  # idempotent, not append-doubling
        events, _, _ = obs.load_run(tmp_path)
        assert events == tel.events

    def test_chrome_trace_is_perfetto_loadable(self, tmp_path):
        self._run().write(tmp_path)
        payload = json.loads((tmp_path / "trace.json").read_text())
        assert payload["displayTimeUnit"] == "ms"
        records = payload["traceEvents"]
        x = [r for r in records if r["ph"] == "X"]
        assert len(x) == 2
        for r in x:
            assert r["ts"] >= 0 and r["dur"] >= 0
            assert r["name"].startswith("search.")
        thread_names = {
            r["args"]["name"] for r in records
            if r.get("name") == "thread_name"
        }
        assert thread_names == {"main"}

    def test_trace_attrs_survive(self, tmp_path):
        self._run().write(tmp_path)
        payload = json.loads((tmp_path / "trace.json").read_text())
        outer = [r for r in payload["traceEvents"]
                 if r.get("name") == "search.outer"]
        assert outer and outer[0]["args"]["depth"] == 8

    def test_summary_lists_spans_and_counters(self):
        text = self._run().summary()
        assert "search.outer" in text and "search.inner" in text
        assert "search.hits" in text
        assert "search.hit_rate" in text  # derived from .hits/.misses


class TestReport:
    def test_self_time_subtracts_children(self):
        from repro.obs.report import span_self_times

        events = [
            ("outer", 0, 100, 0, None),
            ("inner", 10, 30, 0, None),
        ]
        stats = span_self_times(events)
        assert stats["outer"]["total_ns"] == 100
        assert stats["outer"]["self_ns"] == 70
        assert stats["inner"]["self_ns"] == 30

    def test_self_time_is_per_lane(self):
        from repro.obs.report import span_self_times

        # Same window, different lanes: not parent/child.
        events = [
            ("a", 0, 100, 0, None),
            ("b", 10, 30, 1, None),
        ]
        stats = span_self_times(events)
        assert stats["a"]["self_ns"] == 100

    def test_siblings_both_subtracted(self):
        from repro.obs.report import span_self_times

        events = [
            ("outer", 0, 100, 0, None),
            ("child", 5, 20, 0, None),
            ("child", 50, 20, 0, None),
        ]
        stats = span_self_times(events)
        assert stats["outer"]["self_ns"] == 60
        assert stats["child"]["count"] == 2

    def test_derived_hit_rates_and_rates(self):
        from repro.obs.report import derived_stats

        derived = derived_stats({
            "planner.sim_cache.hits": 3,
            "planner.sim_cache.misses": 1,
            "oracle.evaluations": 100,
            "oracle.search_seconds": 2.0,
        })
        assert derived["planner.sim_cache.hit_rate"] == pytest.approx(0.75)
        assert derived["oracle.sims_per_second"] == pytest.approx(50.0)

    def test_rate_and_hit_rate_zero_guards(self):
        assert obs.rate(5, 0) == 0.0
        assert obs.hit_rate(0, 0) == 0.0
        assert obs.hit_rate(1, 1) == pytest.approx(0.5)

    def test_report_directory_matches_summary(self, tmp_path):
        tel = obs.Telemetry()
        with tel.span("x.y"):
            pass
        tel.add("x.count", 2)
        tel.write(tmp_path)
        assert obs.report_directory(tmp_path) == tel.summary()
