"""Smoke tests of the end-to-end benchmark (small streams, a few seconds).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import compare
import probe
import queries
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", str(SEED),
         "--queries", "5", "--repeats", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_all():
    """Every workload at N=5, untraced and traced, and its result file."""
    last = _run("--workload", "all", "--trace", "1")
    result = json.loads((HERE / "out" / f"all-seed{SEED}-trace.json").read_text())
    return last, result


def test_single_workload_prints_every_end_to_end_metric():
    last = _run("--workload", "plan", "--trace", "0")
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] == 5
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0


def test_every_workload_emits_every_metric(traced_all):
    last, result = traced_all
    assert last["correct"] and last["failed"] == 0
    names = {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    for w in workloads.WORKLOADS:
        record = result["workloads"][w]
        assert set(record["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(record["layers"]) == names
        assert {f"{w}.{name}" for name in names} == {
            k for k in last["metrics"] if k.startswith(f"{w}.")
        }


def test_tracing_changes_no_answer_or_count(traced_all):
    """Untraced and traced repeats agree on answers (which carry the
    planner's and oracle's evaluation counts) and on quality_ratio."""
    _, result = traced_all
    for w in workloads.WORKLOADS:
        assert result["workloads"][w]["checks"]["problems"] == []


def test_same_seed_same_inputs_and_quality(traced_all):
    _, result = traced_all
    quality = result["workloads"]["plan"]["metrics"]["quality_ratio"]["median"]
    again = _run("--workload", "plan", "--trace", "0")
    assert again["metrics"]["quality_ratio"]["value"] == quality
    for w in workloads.WORKLOADS:
        a = workloads.make_stream(w, SEED, 50)
        assert workloads.digest(a) == workloads.digest(workloads.make_stream(w, SEED, 50))
        assert workloads.digest(a) != workloads.digest(workloads.make_stream(w, SEED + 1, 50))


def _corrupt(answer: dict) -> dict:
    """The answer with its objective one part in 1e9 too good."""
    bad = dict(answer)
    for key in ("time", "robust_value"):
        if bad.get(key) is not None:
            bad[key] *= 1 - 1e-9
    if "rows" in bad:
        bad["rows"] = [[bad["rows"][0][0] * (1 - 1e-9), bad["rows"][0][1]]] + bad["rows"][1:]
    if "times" in bad:
        bad["times"] = [bad["times"][0] * (1 - 1e-9)] + bad["times"][1:]
    return bad


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checker_rejects_a_corrupted_answer(workload):
    stream = workloads.make_stream(workload, SEED, 12)
    prepared = queries.prepare(stream)
    answers = [q.answer(q.call()) for q in prepared]
    assert checks.check_answers(prepared, answers, SEED) == []
    # The first query of each operation is always among the re-run sample.
    first = {}
    for q in prepared:
        first.setdefault(q.spec["op"], q.index)
    for index in first.values():
        bad = list(answers)
        bad[index] = _corrupt(answers[index])
        failed = checks.check_answers(prepared, bad, SEED)
        assert [i for i, _ in failed] == [index], failed


def test_compare_classifies_by_pairs_spread_and_bound():
    base = [100.0 + i % 3 for i in range(10)]
    assert compare.classify(base, [x * 1.05 for x in base], "higher", 0.1)[0] == "improved"
    assert compare.classify(base, [x * 0.8 for x in base], "higher", 0.1)[0] == "regressed"
    assert compare.classify(base, [x * 0.97 for x in base], "higher", 0.1)[0] == "unchanged"
    noisy = [60.0, 140.0] * 5
    assert compare.classify(noisy, [x * 0.85 for x in noisy], "higher", 0.1)[0] == "unresolved"


def test_compare_lists_changed_counts_and_quality(traced_all, tmp_path, capsys):
    _, result = traced_all
    base = tmp_path / "base.json"
    base.write_text(json.dumps(result))
    head = json.loads(json.dumps(result))
    layers = head["workloads"]["oracle"]["layers"]
    layers["core.exhaustive.evaluations"] += 1
    layers["core.exhaustive.kernel_sweep_s"] *= 2  # a time, not a count
    head["workloads"]["plan"]["metrics"]["quality_ratio"]["value"] *= 1 + 1e-12
    head_path = tmp_path / "head.json"
    head_path.write_text(json.dumps(head))

    assert compare.main([str(base), str(base)]) == 0
    assert "exact value changed" not in capsys.readouterr().out
    assert compare.main([str(base), str(head_path)]) == 0
    changed = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("exact value changed")
    ]
    assert len(changed) == 2, changed
    assert any("oracle core.exhaustive.evaluations" in line for line in changed)
    assert any("plan quality_ratio" in line for line in changed)


def test_probe_samples_while_running():
    with probe.Probe() as p:
        time.sleep(5 * probe.INTERVAL_S)
    assert len(p.durations) >= 2
    assert all(d > 0 for d in p.durations)


def test_probe_scales_a_span_by_the_probes_nearest_to_it():
    ref, ms = probe.REFERENCE_S[False], 1_000_000
    p = probe.Probe()
    for k in range(20):  # a probe every 20 ms, twice as slow from 200 ms on
        duration = round((ref if k < 10 else 2 * ref) * 1e9)
        p.starts.append(20 * k * ms)
        p.ends.append(20 * k * ms + duration)
        p.durations.append(duration)
    assert p.reference(41 * ms, 51 * ms) == pytest.approx(10e-3)
    assert p.reference(301 * ms, 311 * ms) == pytest.approx(5e-3)
    # Probes run inside a span are not the span's own time.
    inside = 4 * 2 * ref  # the probes started at 260, 280, 300 and 320 ms
    assert p.probe_time(250 * ms, 330 * ms) == pytest.approx(inside)
    assert p.reference(250 * ms, 330 * ms) == pytest.approx((80e-3 - inside) / 2)
