"""Interleaved schedule tests: chunking, startup, memory and constraints."""

import pytest

from repro.core.balance_dp import balanced_partition
from repro.experiments.common import INFEASIBLE, run_method
from repro.hardware.cluster import Cluster
from repro.runtime.trainer import run_pipeline
from repro.schedules.interleaved import (
    InterleavedInfeasible,
    build_interleaved,
    interleaved_chunks,
)
from repro.sim.engine import execute


def run_interleaved(profile, stages, m, chunks=2):
    cluster = Cluster(profile.hardware)
    sched = build_interleaved(profile, stages, m, num_chunks=chunks)
    return execute(sched, cluster, device_map=list(range(stages)))


class TestChunking:
    def test_chunk_shapes(self, tiny_profile):
        chunks = interleaved_chunks(tiny_profile, 3, 2)  # 6 layers / 6 virtual
        assert len(chunks) == 3
        assert all(len(c) == 2 for c in chunks)

    def test_chunks_cover_all_blocks(self, tiny_profile):
        chunks = interleaved_chunks(tiny_profile, 3, 2)
        flat = sorted(i for dev in chunks for chunk in dev for i in chunk)
        assert flat == list(range(tiny_profile.num_blocks))

    def test_embedding_on_first_virtual_stage(self, tiny_profile):
        chunks = interleaved_chunks(tiny_profile, 3, 2)
        assert 0 in chunks[0][0]

    def test_head_on_last_virtual_stage(self, tiny_profile):
        chunks = interleaved_chunks(tiny_profile, 3, 2)
        assert tiny_profile.num_blocks - 1 in chunks[2][1]

    def test_indivisible_layers_rejected(self, tiny_profile):
        with pytest.raises(InterleavedInfeasible):
            interleaved_chunks(tiny_profile, 4, 2)  # 6 layers / 8 virtual

    def test_single_chunk_rejected(self, tiny_profile):
        with pytest.raises(InterleavedInfeasible):
            interleaved_chunks(tiny_profile, 3, 1)


class TestExecution:
    def test_micro_batch_multiple_of_depth_required(self, tiny_profile):
        with pytest.raises(InterleavedInfeasible):
            build_interleaved(tiny_profile, 3, 7, num_chunks=2)

    def test_all_virtual_micro_batches_run(self, tiny_profile):
        result = run_interleaved(tiny_profile, 3, 6)
        from repro.sim.timeline import device_events
        for dev in range(3):
            # v=2 chunks: each micro-batch visits the device twice.
            assert len(device_events(result.events, dev, "F")) == 12
            assert len(device_events(result.events, dev, "B")) == 12

    def test_startup_roughly_halved_vs_1f1b(self, tiny_profile):
        n, m = 3, 6
        partition = balanced_partition(tiny_profile.block_times(), n)
        base = run_pipeline(tiny_profile, partition, m)
        inter = run_interleaved(tiny_profile, n, m)
        assert inter.first_forward_start(n - 1) < \
            0.75 * base.first_forward_start(n - 1)

    def test_memory_exceeds_1f1b(self, tiny_profile):
        """The interleaved schedule keeps more activations in flight."""
        n, m = 3, 6
        partition = balanced_partition(tiny_profile.block_times(), n)
        base = run_pipeline(tiny_profile, partition, m)
        inter = run_interleaved(tiny_profile, n, m)
        base_dyn = max(base.peak_memory) - min(base.peak_memory) + 1
        assert max(inter.peak_memory) >= max(base.peak_memory) * 0.9
        assert inter.peak_memory[0] > base.peak_memory[0] * 0.9


class TestArguments:
    """Depth and chunk count are checked when the schedule is built."""

    @pytest.mark.parametrize("arg", ["num_stages", "num_chunks"])
    @pytest.mark.parametrize("value", [1, 0, -2, 2.0, True, "2"])
    def test_bad_count_is_infeasible(self, tiny_profile, arg, value):
        kwargs = {"num_stages": 3, "num_chunks": 2, arg: value}
        with pytest.raises(InterleavedInfeasible, match=arg):
            build_interleaved(
                tiny_profile, kwargs["num_stages"], 6,
                num_chunks=kwargs["num_chunks"],
            )

    @pytest.mark.parametrize("value", [1, 0, 2.0, False])
    def test_chunking_checks_its_counts_too(self, tiny_profile, value):
        with pytest.raises(InterleavedInfeasible, match="num_stages"):
            interleaved_chunks(tiny_profile, value, 2)

    def test_run_method_at_depth_one_is_infeasible(self, tiny_profile):
        result = run_method("interleaved", tiny_profile, 1, 4)
        assert result.status == INFEASIBLE
