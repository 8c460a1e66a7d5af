"""Runtime trainer and metrics tests."""

import math

import pytest

from repro.core.balance_dp import balanced_partition
from repro.core.partition import PartitionScheme
from repro.core.slicer import SlicePlan
from repro.runtime.metrics import (
    balance_improvement,
    balance_std,
    p95,
    p95_regret,
    robust_speedup,
    speedup,
)
from repro.runtime.trainer import build_schedule, run_iteration, run_pipeline
from repro.schedules.interleaved import build_interleaved
from repro.schedules.one_f_one_b import build_1f1b
from repro.sim.slice_eval import evaluate_slice_counts


@pytest.fixture(scope="module")
def partition(tiny_profile):
    return balanced_partition(tiny_profile.block_times(), 3)


class TestRunIteration:
    def test_components_sum(self, tiny_profile, partition):
        result = run_iteration(tiny_profile, partition, 6, data_parallel=2)
        assert result.iteration_seconds == pytest.approx(
            result.pipeline_seconds + result.allreduce_seconds
            + result.optimizer_seconds
        )

    def test_no_allreduce_without_dp(self, tiny_profile, partition):
        result = run_iteration(tiny_profile, partition, 6, data_parallel=1)
        assert result.allreduce_seconds == 0.0

    def test_startup_matches_execution(self, tiny_profile, partition):
        result = run_iteration(tiny_profile, partition, 6)
        assert result.startup_overhead == pytest.approx(
            result.execution.first_forward_start(2)
        )

    def test_sliced_iteration(self, tiny_profile, partition):
        from repro.core.partition import stage_times
        from repro.core.slicer import make_slice_plan
        plan = make_slice_plan(stage_times(partition, tiny_profile), 6)
        result = run_iteration(
            tiny_profile, partition, 6, schedule="sliced", slice_plan=plan
        )
        assert result.schedule_name == "autopipe-sliced"
        assert not result.oom

    def test_optimizer_cost_positive(self, tiny_profile, partition):
        result = run_iteration(tiny_profile, partition, 6)
        assert result.optimizer_seconds > 0

    def test_executor_keyword_removed(self, tiny_profile, partition):
        """``run_iteration`` always runs the compiled graph; only
        ``run_pipeline`` still takes ``executor=`` (``None`` = graph)."""
        with pytest.raises(TypeError, match="executor"):
            run_iteration(tiny_profile, partition, 6, executor="event")
        default = run_pipeline(tiny_profile, partition, 6)
        graph = run_pipeline(tiny_profile, partition, 6, executor="graph")
        event = run_pipeline(tiny_profile, partition, 6, executor="event")
        assert default.iteration_time == graph.iteration_time
        assert default.iteration_time == event.iteration_time
        assert run_iteration(tiny_profile, partition, 6).pipeline_seconds == (
            event.iteration_time
        )


class TestMicroBatchCount:
    """Builders key their shape on ``num_micro_batches``: a float equal
    to an int, or a bool, must not pass for one."""

    @pytest.mark.parametrize("m", [2.5, 4.0, True, "4"])
    def test_non_integer_count_rejected(self, tiny_profile, partition, m):
        with pytest.raises(TypeError, match="num_micro_batches"):
            run_pipeline(tiny_profile, partition, m)
        with pytest.raises(TypeError, match="num_micro_batches"):
            build_schedule(tiny_profile, partition, m, "gpipe")
        with pytest.raises(TypeError, match="num_micro_batches"):
            build_1f1b(tiny_profile, partition, m)
        with pytest.raises(TypeError, match="num_micro_batches"):
            build_interleaved(tiny_profile, 2, m)
        with pytest.raises(TypeError, match="num_micro_batches"):
            evaluate_slice_counts(tiny_profile, partition, m, [0])

    def test_integral_types_accepted(self, tiny_profile, partition):
        import numpy as np

        ref = run_pipeline(tiny_profile, partition, 4)
        got = run_pipeline(tiny_profile, partition, np.int64(4))
        assert got.iteration_time == ref.iteration_time


class TestPartitionCoverage:
    """A partition that covers fewer or more blocks than the profile is
    rejected by every builder with ``stage_times``'s message, instead of
    running a truncated model or failing with an ``IndexError``."""

    @pytest.mark.parametrize("extra", [-2, 2])
    def test_every_builder_rejects_a_mismatched_partition(
        self, tiny_profile, extra
    ):
        half = (tiny_profile.num_blocks + extra) // 2
        wrong = PartitionScheme.from_sizes(
            [half, tiny_profile.num_blocks + extra - half]
        )
        msg = (f"partition covers {wrong.num_blocks} blocks, profile has "
               f"{tiny_profile.num_blocks}")
        with pytest.raises(ValueError, match=msg):
            run_pipeline(tiny_profile, wrong, 4)
        with pytest.raises(ValueError, match=msg):
            run_pipeline(tiny_profile, wrong, 4, schedule="gpipe")
        with pytest.raises(ValueError, match=msg):
            run_pipeline(tiny_profile, wrong, 4, schedule="sliced",
                         slice_plan=SlicePlan(1, 4))
        with pytest.raises(ValueError, match=msg):
            evaluate_slice_counts(tiny_profile, wrong, 4, [0, 1])


class TestMetrics:
    def test_speedup(self):
        assert speedup(2.0, 1.0) == 2.0

    def test_speedup_degenerate_inputs_warn_not_raise(self):
        """One deadlocked/broken cell must not abort a whole sweep."""
        with pytest.warns(RuntimeWarning):
            assert speedup(1.0, 0.0) == 0.0
        with pytest.warns(RuntimeWarning):
            assert speedup(0.0, 1.0) == 0.0
        with pytest.warns(RuntimeWarning):
            assert speedup(-2.0, 1.0) == 0.0

    def test_speedup_non_finite_sentinels(self):
        inf = float("inf")
        nan = float("nan")
        # Deadlocked candidate: infinitely slower, silently 0.
        assert speedup(1.0, inf) == 0.0
        # Deadlocked baseline, working candidate: infinite speedup.
        assert speedup(inf, 1.0) == inf
        with pytest.warns(RuntimeWarning):
            assert math.isnan(speedup(inf, inf))
        with pytest.warns(RuntimeWarning):
            assert math.isnan(speedup(nan, 1.0))
        with pytest.warns(RuntimeWarning):
            assert math.isnan(speedup(1.0, nan))

    def test_p95_and_regret(self):
        samples = list(range(1, 101))
        assert p95(samples) == pytest.approx(95.05)
        assert p95_regret(samples, samples) == 0.0
        worse = [2 * s for s in samples]
        assert p95_regret(worse, samples) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            p95([])

    def test_robust_speedup(self):
        base = [2.0, 2.0, 4.0]
        cand = [1.0, 1.0, 2.0]
        assert robust_speedup(base, cand, "max") == 2.0
        assert robust_speedup(base, cand, "mean") == pytest.approx(2.0)

    def test_balance_std(self):
        assert balance_std([1.0, 1.0, 1.0]) == 0.0
        assert balance_std([1.0, 3.0]) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            balance_std([])

    def test_balance_improvement(self):
        assert balance_improvement([1.0, 3.0], [1.9, 2.1]) == pytest.approx(10.0)
        assert balance_improvement([1.0, 3.0], [2.0, 2.0]) == float("inf")

    def test_balance_improvement_both_perfect_is_neutral(self):
        """0/0 means "already balanced, stayed balanced": ratio 1, not inf."""
        assert balance_improvement([2.0, 2.0], [3.0, 3.0]) == 1.0
        assert balance_improvement([5.0], [5.0]) == 1.0
