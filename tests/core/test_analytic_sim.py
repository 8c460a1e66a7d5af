"""The paper's recurrence simulator: structure, timing and critical path."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analytic_sim import (
    COOLDOWN,
    STEADY,
    WARMUP,
    PipelineSim,
    simulate_partition,
)
from repro.core.balance_dp import balanced_partition
from repro.core.partition import StageTimes


def times(fwd, bwd, comm=0.0):
    return StageTimes(tuple(fwd), tuple(bwd), comm)


def balanced(n, f=1.0, b=2.0, comm=0.0):
    return times([f] * n, [b] * n, comm)


class TestStageOrder:
    def test_block_counts_match_paper_formula(self):
        """Stage k owns max(0, m - n + k + 1) 1F1B blocks."""
        n, m = 4, 8
        sim = PipelineSim(balanced(n), m)
        for x in range(n):
            steady_fps = [
                op for op, ph in sim.stage_order(x)
                if ph == STEADY and op[0] == "F"
            ]
            assert len(steady_fps) == max(0, m - n + x + 1)

    def test_each_stage_runs_all_micro_batches(self):
        n, m = 3, 7
        sim = PipelineSim(balanced(n), m)
        for x in range(n):
            ops = [op for op, _ in sim.stage_order(x)]
            fwd_mbs = sorted(mb for kind, _, mb in ops if kind == "F")
            bwd_mbs = sorted(mb for kind, _, mb in ops if kind == "B")
            assert fwd_mbs == list(range(m))
            assert bwd_mbs == list(range(m))

    def test_warmup_count(self):
        n, m = 5, 8
        sim = PipelineSim(balanced(n), m)
        for x in range(n):
            warm = [op for op, ph in sim.stage_order(x) if ph == WARMUP]
            assert len(warm) == min(m, n - 1 - x)

    def test_last_stage_has_no_warmup_or_cooldown(self):
        sim = PipelineSim(balanced(4), 8)
        phases = {ph for _, ph in sim.stage_order(3)}
        assert phases == {STEADY}

    def test_small_m_all_warmup_cooldown(self):
        n, m = 6, 2
        sim = PipelineSim(balanced(n), m)
        phases = [ph for _, ph in sim.stage_order(0)]
        assert STEADY not in phases


class TestTiming:
    def test_single_stage_is_serial(self):
        sim = PipelineSim(times([1.0], [2.0]), 5).run()
        assert sim.iteration_time == pytest.approx(5 * 3.0)

    def test_balanced_closed_form_no_comm(self):
        """Balanced no-comm pipeline: (m + n - 1) periods of (f + b)...

        Exactly: fill of n-1 forwards + m periods + drain of n-1 backwards.
        """
        n, m, f, b = 4, 8, 1.0, 2.0
        sim = PipelineSim(balanced(n, f, b), m, comm_mode="edges").run()
        expected = (n - 1) * f + m * (f + b) + (n - 1) * b
        assert sim.iteration_time == pytest.approx(expected)

    def test_paper_mode_at_least_edges_mode(self):
        st_ = times([1.0, 1.2, 0.9], [2.0, 2.4, 1.8], comm=0.05)
        paper = PipelineSim(st_, 6, comm_mode="paper").run()
        edges = PipelineSim(st_, 6, comm_mode="edges").run()
        assert paper.iteration_time >= edges.iteration_time - 1e-12

    def test_more_micro_batches_longer(self):
        st_ = balanced(3, comm=0.1)
        t1 = PipelineSim(st_, 4).run().iteration_time
        t2 = PipelineSim(st_, 8).run().iteration_time
        assert t2 > t1

    def test_startup_overhead_is_forward_fill(self):
        n, m = 4, 8
        sim = PipelineSim(balanced(n, f=1.0, b=2.0), m, comm_mode="edges").run()
        assert sim.startup_overhead == pytest.approx((n - 1) * 1.0)

    def test_comm_increases_startup(self):
        base = PipelineSim(balanced(4), 8).run().startup_overhead
        with_comm = PipelineSim(balanced(4, comm=0.2), 8).run().startup_overhead
        assert with_comm == pytest.approx(base + 3 * 0.2)

    def test_imbalance_increases_iteration(self):
        bal = PipelineSim(balanced(4), 8).run().iteration_time
        skew = PipelineSim(times([0.5, 1.5, 1.0, 1.0],
                                 [1.0, 3.0, 2.0, 2.0]), 8).run().iteration_time
        assert skew > bal

    def test_invalid_micro_batches(self):
        for bad in (0, -1, True, 2.0):
            with pytest.raises(ValueError, match="num_micro_batches"):
                PipelineSim(balanced(2), bad)

    def test_unknown_comm_mode(self):
        with pytest.raises(ValueError):
            PipelineSim(balanced(2), 2, comm_mode="nope")


class TestDependencies:
    def test_forward_waits_for_previous_stage(self):
        sim = PipelineSim(balanced(3, comm=0.0), 4, comm_mode="edges").run()
        for mb in range(4):
            for x in range(1, 3):
                assert sim.op_start[("F", x, mb)] >= sim.op_end[("F", x - 1, mb)]

    def test_backward_waits_for_next_stage(self):
        sim = PipelineSim(balanced(3), 4, comm_mode="edges").run()
        for mb in range(4):
            for x in range(2):
                assert sim.op_start[("B", x, mb)] >= sim.op_end[("B", x + 1, mb)]

    def test_intra_stage_ops_serial(self):
        sim_obj = PipelineSim(balanced(3), 5, comm_mode="edges")
        sim = sim_obj.run()
        for x in range(3):
            order = [op for op, _ in sim_obj.stage_order(x)]
            for a, b in zip(order, order[1:]):
                assert sim.op_start[b] >= sim.op_end[a] - 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=10),
        st.data(),
    )
    def test_random_pipelines_respect_dependencies(self, n, m, data):
        fwd = [data.draw(st.floats(min_value=0.1, max_value=3.0)) for _ in range(n)]
        bwd = [data.draw(st.floats(min_value=0.1, max_value=3.0)) for _ in range(n)]
        comm = data.draw(st.floats(min_value=0.0, max_value=0.5))
        sim = PipelineSim(times(fwd, bwd, comm), m, comm_mode="edges").run()
        busy = sum(m * (f + b) for f, b in zip(fwd, bwd)) / n
        assert sim.iteration_time >= busy / 1.0 - 1e-9  # sanity lower bound
        for mb in range(m):
            for x in range(1, n):
                assert sim.op_start[("F", x, mb)] >= \
                    sim.op_end[("F", x - 1, mb)] + comm - 1e-9


class TestCriticalPath:
    def test_path_starts_at_first_forward(self):
        sim = PipelineSim(balanced(4), 8).run()
        first = sim.critical_path[0]
        assert first == ("F", 0, 0)

    def test_path_ends_at_latest_op(self):
        sim = PipelineSim(balanced(4), 8).run()
        last = sim.critical_path[-1]
        assert sim.op_end[last] == pytest.approx(sim.iteration_time)

    def test_path_is_connected_in_time(self):
        sim = PipelineSim(balanced(4), 8).run()
        path = sim.critical_path
        for a, b in zip(path, path[1:]):
            assert sim.op_end[a] <= sim.op_start[b] + 1e-9

    def test_master_stage_is_heaviest(self):
        st_ = times([1.0, 2.0, 1.0], [2.0, 4.0, 2.0], comm=0.0)
        sim = PipelineSim(st_, 9).run()
        assert sim.master_stage == 1

    def test_master_tie_breaks_toward_last_stage(self):
        """Balanced pipeline: paper picks the path closest to the last stage."""
        sim = PipelineSim(balanced(4), 8).run()
        assert sim.master_stage == 3

    def test_master_moves_with_load(self):
        heavy_first = times([3.0, 1.0, 1.0], [6.0, 2.0, 2.0])
        sim = PipelineSim(heavy_first, 9).run()
        assert sim.master_stage == 0


class TestSimResultHelpers:
    def test_bubble_fraction_bounds(self):
        sim = PipelineSim(times([1.0, 0.5], [2.0, 1.0]), 6).run()
        for x in range(2):
            frac = sim.bubble_fraction(x)
            assert 0.0 <= frac < 1.0

    def test_heavier_stage_has_fewer_bubbles(self):
        sim = PipelineSim(times([1.0, 0.5], [2.0, 1.0]), 6).run()
        assert sim.bubble_fraction(0) < sim.bubble_fraction(1)


class TestSimulatePartition:
    def test_wrapper_consistency(self, tiny_profile):
        p = balanced_partition(tiny_profile.block_times(), 3)
        sim = simulate_partition(tiny_profile, p, 6)
        assert sim.iteration_time > 0
        assert sim.num_stages == 3
