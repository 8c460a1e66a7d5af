"""Fast-path tests of the experiment run() table assembly."""

import pytest

from repro.experiments import (
    deep_pipeline,
    fig9,
    fig10,
    fig13,
    fig14,
    table3,
    table4,
)
from repro.models.zoo import GPT2_345M, GPT2_762M


class TestFig9Run:
    def test_reduced_sweep_rows(self):
        result = fig9.run(models=[GPT2_345M], micro_batch_sizes=(4,))
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row[0] == "gpt2-345m"
        assert row[-1].endswith("x")

    def test_oom_row_shows_dash_speedup(self):
        result = fig9.run(models=[GPT2_762M], micro_batch_sizes=(32,))
        row = result.rows[0]
        assert row[2] == "OOM"
        assert row[-1] == "-"


class TestFig10Run:
    def test_reduced_sweep(self):
        result = fig10.run(configs=[(GPT2_345M, 4, (2, 4))])
        assert len(result.rows) == 2
        assert [r[2] for r in result.rows] == [2, 4]


class TestFig14Run:
    def test_combined_run_carries_both_parts(self):
        result = fig14.run_a(micro_batch_sizes=(4,))
        assert len(result.rows) == 1
        result_b = fig14.run_b(stage_counts=(2,))
        assert len(result_b.rows) == 1


class TestDeepPipelineRun:
    def test_compile_column_and_one_off_speedup(self, monkeypatch):
        monkeypatch.setattr(deep_pipeline, "DEPTHS", (2,))
        result = deep_pipeline.run()
        headers = result.headers
        assert headers.index("compile (ms)") < headers.index("compiled (ms)")
        assert len(result.rows) == 3  # 1f1b, sliced, interleaved
        for row in result.rows:
            cells = dict(zip(headers, row))
            assert cells["compile (ms)"] > 0
            assert cells["compiled (ms)"] > 0
            # One event run against compile plus one compiled run: the
            # ratio is below the warm-run ratio by construction.
            assert 0 <= cells["speedup"] < (
                cells["event (ms)"] / cells["compiled (ms)"] + 0.1
            )


class TestTableRuns:
    def test_table3_reduced(self):
        result = table3.run(gpu_counts=(4,), global_batch_sizes=(128,))
        assert len(result.rows) == 3  # D, P, A
        algs = [r[1] for r in result.rows]
        assert algs == ["D", "P", "A"]

    def test_table4_reduced(self):
        result = table4.run(
            cases=((GPT2_345M, 32),), gpu_counts=(4,),
            global_batch_sizes=(512,),
        )
        assert len(result.rows) == 3

    def test_fig13_single_gpu_count(self):
        result = fig13.run(gpu_counts=(4,))
        assert len(result.rows) == 3
