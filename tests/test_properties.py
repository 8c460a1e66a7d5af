"""Cross-cutting property-based stress tests.

These exercise whole subsystem stacks with randomly generated inputs:
random partitions and unit sequences through the schedule builders and the
DES, random stage times through the recurrence simulator and the Slicer.
Invariants asserted here are the ones every other layer relies on.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analytic_sim import PipelineSim
from repro.core.partition import PartitionScheme, StageTimes
from repro.core.slicer import SlicePlan, solve_slice_count
from repro.hardware.cluster import Cluster
from repro.runtime.trainer import run_pipeline
from repro.schedules.one_f_one_b import build_unit_1f1b
from repro.schedules.sliced import build_sliced
from repro.sim.engine import execute


def random_partition(rng: random.Random, num_blocks: int, stages: int):
    cuts = sorted(rng.sample(range(1, num_blocks), stages - 1))
    return PartitionScheme.from_boundaries(num_blocks, cuts)


@st.composite
def stage_times_strategy(draw, max_stages=6):
    n = draw(st.integers(min_value=1, max_value=max_stages))
    fwd = tuple(
        draw(st.floats(min_value=0.01, max_value=2.0)) for _ in range(n)
    )
    bwd = tuple(
        draw(st.floats(min_value=0.01, max_value=4.0)) for _ in range(n)
    )
    comm = draw(st.floats(min_value=0.0, max_value=0.2))
    return StageTimes(fwd, bwd, comm)


class TestAnalyticSimProperties:
    @settings(max_examples=80, deadline=None)
    @given(stage_times_strategy(), st.integers(min_value=1, max_value=12))
    def test_iteration_bounded_below_by_critical_stage(self, times, m):
        sim = PipelineSim(times, m, comm_mode="edges").run()
        busiest = max(f + b for f, b in zip(times.fwd, times.bwd))
        assert sim.iteration_time >= m * busiest - 1e-9

    @settings(max_examples=80, deadline=None)
    @given(stage_times_strategy(), st.integers(min_value=1, max_value=12))
    def test_iteration_bounded_above_by_serialization(self, times, m):
        """No schedule is worse than running everything serially."""
        sim = PipelineSim(times, m, comm_mode="edges").run()
        serial = m * sum(
            f + b for f, b in zip(times.fwd, times.bwd)
        ) + 2 * times.comm * times.num_stages * m
        assert sim.iteration_time <= serial + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(stage_times_strategy(), st.integers(min_value=1, max_value=10))
    def test_paper_mode_dominates_edges_mode(self, times, m):
        paper = PipelineSim(times, m, comm_mode="paper").run()
        edges = PipelineSim(times, m, comm_mode="edges").run()
        assert paper.iteration_time >= edges.iteration_time - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(stage_times_strategy(), st.integers(min_value=1, max_value=10))
    def test_monotone_in_micro_batches(self, times, m):
        t1 = PipelineSim(times, m, comm_mode="edges").run().iteration_time
        t2 = PipelineSim(times, m + 1, comm_mode="edges").run().iteration_time
        assert t2 >= t1 - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(stage_times_strategy(), st.integers(min_value=1, max_value=10))
    def test_master_stage_in_range(self, times, m):
        sim = PipelineSim(times, m).run()
        assert 0 <= sim.master_stage < times.num_stages


class TestSlicerProperties:
    @settings(max_examples=60, deadline=None)
    @given(stage_times_strategy(max_stages=10),
           st.integers(min_value=1, max_value=40))
    def test_slice_count_deterministic(self, times, m):
        assert solve_slice_count(times, m) == solve_slice_count(times, m)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=10),
           st.integers(min_value=1, max_value=20))
    def test_units_partition_micro_batches(self, n, m):
        count = min(n - 1, m)
        plan = SlicePlan(count, m)
        units = plan.units()
        mbs = [mb for mb, _ in units]
        # Every micro-batch appears; sliced ones exactly twice.
        for mb in range(m):
            expected = 2 if mb < count else 1
            assert mbs.count(mb) == expected


class TestScheduleStackProperties:
    """Random sliced/plain schedules through the builder and the DES."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),   # stages
        st.integers(min_value=1, max_value=6),   # micro-batches
        st.integers(min_value=0, max_value=4),   # sliced count (capped)
        st.integers(min_value=0, max_value=10**6),
    )
    def test_no_deadlock_and_full_coverage(
        self, tiny_profile, stages, m, sliced, seed
    ):
        rng = random.Random(seed)
        n_blocks = tiny_profile.num_blocks
        partition = random_partition(rng, n_blocks, stages)
        sliced = min(sliced, m)
        plan = SlicePlan(sliced, m, aggregate_last_warmup_comm=bool(seed % 2))
        schedule = build_sliced(tiny_profile, partition, plan)
        cluster = Cluster(tiny_profile.hardware)
        result = execute(
            schedule, cluster, device_map=list(range(stages))
        )
        # Every device computed every unit forward and backward.
        expected_units = m + sliced
        for dev in range(stages):
            f = sum(1 for e in result.events
                    if e.device == dev and e.category == "F")
            b = sum(1 for e in result.events
                    if e.device == dev and e.category == "B")
            assert f == expected_units
            assert b == expected_units
        assert result.iteration_time > 0

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_memory_returns_to_static(self, tiny_profile, stages, m, seed):
        """All stash allocations are freed by the end of the iteration."""
        rng = random.Random(seed)
        partition = random_partition(rng, tiny_profile.num_blocks, stages)
        result = run_pipeline(tiny_profile, partition, m)
        # Net alloc == net free per device (peak is checked elsewhere).
        schedule = build_unit_1f1b(
            tiny_profile, partition, [(i, -1) for i in range(m)]
        )
        from repro.schedules.base import ComputeOp
        for dev in range(stages):
            alloc = sum(
                op.alloc_bytes for op in schedule.programs[dev]
                if isinstance(op, ComputeOp)
            )
            freed = sum(
                op.free_bytes for op in schedule.programs[dev]
                if isinstance(op, ComputeOp)
            )
            assert alloc == pytest.approx(freed)
