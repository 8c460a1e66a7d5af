"""Experiment-plumbing tests: run_method dispatch and table rendering."""

import pytest

from repro.experiments.common import (
    INFEASIBLE,
    OK,
    OOM,
    ExperimentResult,
    MethodResult,
    format_table,
    make_profile,
    run_method,
)
from tests.conftest import TINY


@pytest.fixture(scope="module")
def profile():
    return make_profile(TINY, 4, 6)


class TestRunMethod:
    @pytest.mark.parametrize("method", ["megatron", "slicer", "planner",
                                        "autopipe", "gpipe"])
    def test_methods_run(self, profile, method):
        r = run_method(method, profile, 3, 6)
        assert r.status == OK
        assert r.iteration_seconds > 0
        assert r.startup_seconds > 0
        assert r.peak_memory > 0

    def test_interleaved_runs(self, profile):
        r = run_method("interleaved", profile, 3, 6)
        assert r.status == OK

    def test_interleaved_matches_event_engine(self, profile):
        from repro.hardware.cluster import Cluster
        from repro.schedules.interleaved import build_interleaved
        from repro.sim.engine import Engine

        cluster = Cluster(profile.hardware)
        schedule = build_interleaved(profile, 3, 6, num_chunks=2)
        ref = Engine(
            schedule, cluster, device_map=cluster.pipeline_devices(3)
        ).run()
        r = run_method("interleaved", profile, 3, 6)
        assert r.iteration_seconds == ref.iteration_time
        assert r.startup_seconds == ref.first_forward_start(2)

    def test_executor_keyword_removed(self, profile):
        with pytest.raises(TypeError, match="executor"):
            run_method("megatron", profile, 3, 6, executor="event")

    def test_megatron_infeasible_depth(self, profile):
        # TINY has 6 layers; 4 does not divide 6.
        r = run_method("megatron", profile, 4, 8)
        assert r.status == INFEASIBLE
        assert not r.ok

    def test_interleaved_infeasible(self, profile):
        r = run_method("interleaved", profile, 4, 8)
        assert r.status == INFEASIBLE

    def test_planner_ignores_divisibility(self, profile):
        """Sub-layer planning works at depths Megatron cannot run."""
        r = run_method("planner", profile, 4, 8)
        assert r.status == OK

    def test_oom_classification(self):
        from repro.models.zoo import GPT2_762M
        profile = make_profile(GPT2_762M, 32, 8)
        r = run_method("megatron", profile, 4, 8)
        assert r.status == OOM
        assert not r.ok


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table("T", ["a", "bbb"], [[1, 2.5], [333, 4.0]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "---" in lines[2]
        assert lines[3].endswith("2.5")

    def test_format_table_short_rows(self):
        """A baseline with zero admissible plans emits a short row; it
        must pad, not raise."""
        text = format_table(
            "T", ["method", "time", "plans"],
            [["piper", 1.5, 3], ["dapple (none)"]],
        )
        lines = text.splitlines()
        assert lines[-1].strip().startswith("dapple (none)")
        # every body line is aligned to the same width
        assert len(lines[-1]) == len(lines[-2])

    def test_format_table_long_rows(self):
        text = format_table("T", ["a"], [["x", "extra"]])
        assert "extra" in text

    def test_experiment_result_render(self):
        r = ExperimentResult(name="X", headers=["h"], rows=[["v"]])
        assert "X" in r.render()
        assert "v" in r.render()

    def test_method_result_ok(self):
        assert MethodResult("m", OK).ok
        assert not MethodResult("m", OOM).ok
