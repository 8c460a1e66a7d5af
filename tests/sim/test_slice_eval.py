"""Property suite: batched slice-count evaluation == per-candidate DES.

``evaluate_slice_counts`` emits the compiled DAG of each (1F1B x slice
count) candidate directly and relaxes structure-sharing candidates in one
batch; the contract that lets the autotuner use it is bit-identity with
the reference path — one ``run_pipeline`` (schedule build, instruction
lowering, graph compile, single execution) per candidate.  Hypothesis
drives pipeline depth, micro-batch count, slice-count sets, cost jitter
and cluster shape, and asserts every :class:`ExecutionResult` field the
autotuner (or anyone else) can read agrees exactly, raw event log
included.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.balance_dp import balanced_partition
from repro.core.slicer import SlicePlan
from repro.experiments.common import make_profile
from repro.models.zoo import GPT2_345M
from repro.runtime.trainer import run_pipeline
from repro.sim.graph_exec import template_cache_info
from repro.sim.slice_eval import evaluate_slice_counts


def _jittered(mbs, m, seed):
    base = make_profile(GPT2_345M, mbs, m)
    rng = random.Random(seed)
    blocks = tuple(
        dataclasses.replace(
            bp,
            fwd_time=bp.fwd_time * (0.5 + rng.random()),
            bwd_time=bp.bwd_time * (0.5 + rng.random()),
            stash_bytes=bp.stash_bytes * (0.5 + rng.random()),
            workspace_bytes=bp.workspace_bytes * (0.5 + rng.random()),
        )
        for bp in base.blocks
    )
    return dataclasses.replace(base, blocks=blocks)


def _reference(profile, partition, m, num_sliced):
    if num_sliced == 0:
        return run_pipeline(profile, partition, m)
    return run_pipeline(
        profile, partition, m, schedule="sliced",
        slice_plan=SlicePlan(num_sliced=num_sliced, num_micro_batches=m),
    )


class TestBatchedEqualsPerCandidate:
    @given(
        p=st.integers(2, 4),
        m=st.integers(4, 12),
        mbs=st.sampled_from([4, 8]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_results(self, p, m, mbs, seed, data):
        profile = _jittered(mbs, m, seed)
        partition = balanced_partition(profile.block_times(), p)
        slice_counts = data.draw(
            st.lists(st.integers(0, m), min_size=1, max_size=5, unique=True)
        )
        batch = evaluate_slice_counts(profile, partition, m, slice_counts)
        assert len(batch) == len(slice_counts)
        for num_sliced, got in zip(slice_counts, batch):
            ref = _reference(profile, partition, m, num_sliced)
            assert got.schedule_name == ref.schedule_name
            assert got.iteration_time == ref.iteration_time
            assert got.peak_memory == ref.peak_memory
            assert got.oom_devices == ref.oom_devices
            assert got.num_devices == ref.num_devices
            assert got.raw_events == ref.raw_events
            for d in range(ref.num_devices):
                assert got.first_forward_start(d) == \
                    ref.first_forward_start(d)

    def test_structure_cache_reused_across_calls(self):
        profile = _jittered(4, 8, seed=7)
        partition = balanced_partition(profile.block_times(), 2)
        evaluate_slice_counts(profile, partition, 8, [0, 2, 4])
        count, _ = template_cache_info()
        # A second sweep over the same family compiles no new structures.
        evaluate_slice_counts(profile, partition, 8, [0, 2, 4])
        assert template_cache_info()[0] == count

    @pytest.mark.parametrize("count", [5, -1])
    def test_out_of_range_count_raises_like_run_pipeline(self, count):
        """A count outside ``0..m`` is the ``SlicePlan`` error, not a
        silent clamp to ``m`` or a plain 1F1B run."""
        profile = _jittered(4, 4, seed=1)
        partition = balanced_partition(profile.block_times(), 2)
        with pytest.raises(ValueError) as ref:
            run_pipeline(
                profile, partition, 4, schedule="sliced",
                slice_plan=SlicePlan(num_sliced=count, num_micro_batches=4),
            )
        with pytest.raises(ValueError) as got:
            evaluate_slice_counts(profile, partition, 4, [0, count])
        assert str(got.value) == str(ref.value)
