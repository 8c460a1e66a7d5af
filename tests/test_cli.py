"""CLI dispatch tests (no heavy experiments executed)."""

import pytest

from repro.cli import main
from repro.experiments import ALL_EXPERIMENTS


def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == set(ALL_EXPERIMENTS)


def test_unknown_experiment_errors():
    with pytest.raises(SystemExit):
        main(["figure99"])


def test_table2_runs(capsys):
    """table2 is pure table construction — cheap enough for a unit test."""
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "6.5" in out


class _Boom:
    @staticmethod
    def main():
        raise RuntimeError("cell deadlocked")


class _Fine:
    ran = False

    @classmethod
    def main(cls):
        cls.ran = True


def test_failing_experiment_exits_nonzero(monkeypatch, capsys):
    """A crash inside an experiment must surface as a non-zero exit."""
    monkeypatch.setitem(ALL_EXPERIMENTS, "boom", _Boom)
    assert main(["boom"]) == 1
    err = capsys.readouterr().err
    assert "cell deadlocked" in err
    assert "'boom' failed" in err


def test_all_reports_failures_but_keeps_going(monkeypatch, capsys):
    """'all' finishes the other experiments and names the failed ones."""
    _Fine.ran = False
    monkeypatch.setattr(
        "repro.cli.ALL_EXPERIMENTS", {"boom": _Boom, "fine": _Fine}
    )
    assert main(["all"]) == 1
    err = capsys.readouterr().err
    assert _Fine.ran  # the crash did not stop the sweep
    assert "1/2 experiments failed: boom" in err


class TestPlanFlags:
    def test_bad_plan_jobs_errors(self, capsys):
        """``--plan-jobs`` and ``--jobs`` are gone: any value is an error."""
        for argv in (
            ["list", "--plan-jobs", "1"],
            ["list", "--jobs", "1"],
            ["plan", "--stages", "2", "--micro-batches", "4",
             "--plan-jobs", "1"],
        ):
            with pytest.raises(SystemExit):
                main(argv)
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_executor_flag_removed(self, capsys):
        """``--executor`` is gone: pipeline runs use the compiled graph."""
        with pytest.raises(SystemExit):
            main(["list", "--executor", "event"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cache_flags_removed(self, capsys):
        """The on-disk sweep and plan caches are gone with their flags."""
        for argv in (
            ["list", "--cache-dir", "d"],
            ["list", "--plan-cache-dir", "d"],
            ["list", "--clear-cache"],
            ["plan", "--stages", "2", "--micro-batches", "4",
             "--plan-cache-dir", "d"],
        ):
            with pytest.raises(SystemExit):
                main(argv)
            assert "unrecognized arguments" in capsys.readouterr().err


class TestPlanSubcommand:
    def test_plan_prints_partition(self, capsys):
        assert main([
            "plan", "--model", "gpt2-345m", "--stages", "4",
            "--micro-batches", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "partition:" in out and "iteration time:" in out

    def test_plan_oracle_with_telemetry_writes_sinks(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main([
            "plan", "--stages", "3", "--micro-batches", "8", "--oracle",
            "--telemetry", str(run),
        ]) == 0
        for name in ("events.jsonl", "counters.json", "trace.json",
                     "summary.txt"):
            assert (run / name).exists(), name
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "oracle.search" in out

    @pytest.mark.parametrize("oracle", [False, True],
                             ids=["planner", "oracle"])
    def test_plan_telemetry_counters_match_printed_evaluations(
        self, tmp_path, capsys, oracle
    ):
        import json
        import re

        run = tmp_path / "run"
        argv = ["plan", "--stages", "3", "--micro-batches", "8",
                "--telemetry", str(run)] + (["--oracle"] if oracle else [])
        assert main(argv) == 0
        for name in ("events.jsonl", "counters.json", "trace.json",
                     "summary.txt"):
            assert (run / name).exists(), name
        out = capsys.readouterr().out
        printed = int(re.search(r"^evaluations: (\d+)", out, re.M).group(1))
        layer = "oracle" if oracle else "planner"
        counters = json.loads((run / "counters.json").read_text())["counters"]
        assert counters[f"{layer}.evaluations"] == printed
        assert f"{layer}.evaluations" in (run / "summary.txt").read_text()
        names = {json.loads(line).get("name")
                 for line in (run / "events.jsonl").read_text().splitlines()}
        assert f"{layer}.{'search' if oracle else 'plan'}" in names
        from repro import obs

        assert obs.current() is None  # the session ended with the call

    @pytest.mark.parametrize("argv,message", [
        (["--stages", "0", "--micro-batches", "4"], "--stages must be >= 1"),
        (["--stages", "2", "--micro-batches", "0"],
         "--micro-batches must be >= 1"),
        (["--stages", "2", "--micro-batches", "4", "--micro-batch-size", "0"],
         "--micro-batch-size must be >= 1"),
        (["--stages", "99", "--micro-batches", "4"], "99 stages exceed"),
        (["--stages", "12", "--micro-batches", "4", "--oracle"],
         "exceeds max_evaluations"),
    ], ids=["stages", "micro-batches", "micro-batch-size", "too-deep",
            "oracle-space"])
    def test_plan_usage_errors(self, capsys, argv, message):
        """Bad counts and infeasible searches are usage errors (exit 2
        naming the problem), not tracebacks."""
        with pytest.raises(SystemExit) as exc:
            main(["plan", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_plan_unknown_model_errors(self):
        with pytest.raises(SystemExit):
            main(["plan", "--model", "nope", "--stages", "2",
                  "--micro-batches", "4"])

    def test_plan_requires_stages(self):
        with pytest.raises(SystemExit):
            main(["plan", "--micro-batches", "4"])


class TestTelemetrySubcommand:
    def test_report_renders_saved_run(self, tmp_path, capsys):
        from repro import obs

        tel = obs.Telemetry()
        with tel.span("x.y"):
            pass
        tel.add("x.count", 1)
        tel.write(tmp_path)
        assert main(["telemetry", "report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "x.y" in out and "x.count" in out

    def test_report_missing_directory_fails(self, tmp_path, capsys):
        assert main(["telemetry", "report", str(tmp_path / "nope")]) == 1
        assert "not a telemetry directory" in capsys.readouterr().err


def test_experiment_telemetry_flag(monkeypatch, tmp_path, capsys):
    """--telemetry wraps the whole invocation and writes the sink files."""
    from repro import obs

    class _Plans:
        @staticmethod
        def main():
            obs.add("fake.counter", 2)

    monkeypatch.setattr("repro.cli.ALL_EXPERIMENTS", {"plans": _Plans})
    run = tmp_path / "tele"
    assert main(["plans", "--telemetry", str(run)]) == 0
    assert (run / "counters.json").exists()
    import json

    counters = json.loads((run / "counters.json").read_text())["counters"]
    assert counters["fake.counter"] == 2
    assert obs.current() is None  # uninstalled after the run
