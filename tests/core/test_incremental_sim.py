"""Prefix states, ``resume`` and ``SuffixSimBatch``.

``PipelineSim.resume(state, suffix)`` is defined as one cold
``PipelineSim.run()`` of the joined stage times, and ``SuffixSimBatch``
as ``K`` resume calls, so these tests hold one example of each and the
argument checks.
"""

import pytest

from repro.core.analytic_sim import (
    PipelineSim,
    PrefixState,
    SuffixSimBatch,
)
from repro.core.partition import StageTimes

_FWD, _BWD, _COMM, _M = (1.0, 2.0, 1.0, 0.5), (2.0, 1.0, 2.0, 1.5), 0.5, 6


def _assert_results_identical(cold, warm):
    assert warm.iteration_time == cold.iteration_time
    assert warm.startup_overhead == cold.startup_overhead
    assert warm.master_stage == cold.master_stage
    assert warm.critical_path == cold.critical_path
    assert warm.op_start == cold.op_start
    assert warm.op_end == cold.op_end


class TestResumeMatchesCold:
    def test_resume_bit_identical(self):
        sim = PipelineSim(StageTimes(_FWD, _BWD, _COMM), _M, comm_mode="edges")
        warm = PipelineSim.resume(
            sim.prefix_state(2), StageTimes(_FWD[2:], _BWD[2:], _COMM)
        )
        _assert_results_identical(sim.run(), warm)

    def test_extend_chain_matches_one_shot_checkpoint(self):
        sim = PipelineSim(StageTimes(_FWD, _BWD, _COMM), _M)
        chain = PrefixState.initial(4, _M, _COMM)
        for k in range(4):
            assert chain == sim.prefix_state(k)
            if k < 3:
                chain = chain.extend(_FWD[k], _BWD[k])


_ROWS_F = [(2.0, 1.5), (0.5, 3.0)]
_ROWS_B = [(1.0, 2.0), (2.5, 0.5)]


def _assert_batch_matches_cold(states, prefixes):
    batch = SuffixSimBatch(states, _ROWS_F, _ROWS_B)
    its = batch.iteration_times().tolist()
    sus = batch.startup_overheads().tolist()
    for j, (st, sf, sb) in enumerate(zip(prefixes, _ROWS_F, _ROWS_B)):
        cold = PipelineSim(
            StageTimes(st.prefix_fwd + sf, st.prefix_bwd + sb, _COMM), _M
        ).run()
        assert its[j] == cold.iteration_time
        assert sus[j] == cold.startup_overhead
        _assert_results_identical(cold, batch.result(j))


class TestSuffixBatchMatchesCold:
    def test_shared_prefix_batch(self):
        shared = PipelineSim(StageTimes(_FWD, _BWD, _COMM), _M).prefix_state(2)
        _assert_batch_matches_cold(shared, [shared] * 2)

    def test_per_row_prefix_states(self):
        per_row = [
            PipelineSim(StageTimes(_FWD, _BWD, _COMM), _M).prefix_state(2),
            PipelineSim(StageTimes(_BWD, _FWD, _COMM), _M).prefix_state(2),
        ]
        _assert_batch_matches_cold(per_row, per_row)


class TestValidation:
    def test_resume_rejects_comm_mismatch(self):
        sim = PipelineSim(StageTimes((1.0, 2.0), (2.0, 1.0), 0.1), 2)
        state = sim.prefix_state(1)
        with pytest.raises(ValueError, match="comm"):
            PipelineSim.resume(state, StageTimes((2.0,), (1.0,), 0.2))

    def test_resume_rejects_wrong_suffix_width(self):
        sim = PipelineSim(StageTimes((1.0, 2.0, 3.0), (1.0,) * 3, 0.1), 2)
        state = sim.prefix_state(1)
        with pytest.raises(ValueError, match="suffix stages"):
            PipelineSim.resume(state, StageTimes((2.0,), (1.0,), 0.1))

    def test_extend_past_last_checkpointable_stage(self):
        state = PrefixState.initial(2, 2, 0.0)
        state = state.extend(1.0, 1.0)
        with pytest.raises(ValueError, match="cannot extend"):
            state.extend(1.0, 1.0)

    def test_batch_rejects_wrong_width_and_mixed_states(self):
        sim = PipelineSim(StageTimes((1.0, 2.0, 3.0), (1.0,) * 3, 0.1), 2)
        state = sim.prefix_state(1)
        with pytest.raises(ValueError, match="suffix stages"):
            SuffixSimBatch(state, [(1.0,)], [(1.0,)])
        other = PipelineSim(
            StageTimes((1.0, 2.0, 3.0), (1.0,) * 3, 0.2), 2
        ).prefix_state(1)
        with pytest.raises(ValueError, match="share"):
            SuffixSimBatch(
                [state, other], [(1.0, 1.0)] * 2, [(1.0, 1.0)] * 2
            )
