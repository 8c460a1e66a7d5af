"""Property tests for prefix-state checkpoints and incremental resume.

The contract the perf work must never weaken: every incremental path is
**bit-identical** to a cold simulation —

* ``PipelineSim.resume(prefix_state(k), suffix)`` reproduces
  ``PipelineSim.run()`` exactly (iteration time, startup overhead,
  critical path, master stage, per-op times, ties included), for every
  cut, both comm modes, and tie-saturated as well as continuous costs;
* a chain of ``PrefixState.extend`` steps equals the one-shot
  ``prefix_state(k)`` checkpoint bit for bit;
* ``SuffixSimBatch`` equals ``K`` scalar cold runs, for one shared
  checkpoint, per-row checkpoints, and the start-less fast path.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analytic_sim import (
    PipelineSim,
    PrefixState,
    SuffixSimBatch,
)
from repro.core.partition import StageTimes

#: discrete values that collide constantly — exact-tie saturation is the
#: worst case for master-stage and critical-path tie-breaking.
_TIE_HEAVY = st.sampled_from([0.5, 1.0, 1.5, 2.0])
_CONTINUOUS = st.floats(min_value=0.01, max_value=5.0, allow_nan=False)
_TIMES = st.one_of(_TIE_HEAVY, _CONTINUOUS)


@st.composite
def _pipeline_case(draw, min_stages=2, max_stages=10):
    n = draw(st.integers(min_value=min_stages, max_value=max_stages))
    m = draw(st.integers(min_value=1, max_value=8))
    comm_mode = draw(st.sampled_from(["paper", "edges"]))
    comm = draw(st.sampled_from([0.0, 0.05, 0.5]))
    fwd = tuple(draw(_TIMES) for _ in range(n))
    bwd = tuple(draw(_TIMES) for _ in range(n))
    return n, m, comm_mode, comm, fwd, bwd


def _assert_results_identical(cold, warm):
    assert warm.iteration_time == cold.iteration_time
    assert warm.startup_overhead == cold.startup_overhead
    assert warm.master_stage == cold.master_stage
    assert warm.critical_path == cold.critical_path
    assert warm.op_start == cold.op_start
    assert warm.op_end == cold.op_end


class TestResumeMatchesCold:
    @settings(max_examples=120, deadline=None)
    @given(_pipeline_case(), st.data())
    def test_resume_bit_identical(self, case, data):
        n, m, comm_mode, comm, fwd, bwd = case
        k = data.draw(st.integers(min_value=0, max_value=n - 1), label="cut")
        times = StageTimes(fwd, bwd, comm)
        sim = PipelineSim(times, m, comm_mode=comm_mode)
        cold = sim.run()
        state = sim.prefix_state(k)
        warm = PipelineSim.resume(
            state, StageTimes(fwd[k:], bwd[k:], comm)
        )
        _assert_results_identical(cold, warm)

    @settings(max_examples=80, deadline=None)
    @given(_pipeline_case())
    def test_extend_chain_matches_one_shot_checkpoint(self, case):
        n, m, comm_mode, comm, fwd, bwd = case
        sim = PipelineSim(StageTimes(fwd, bwd, comm), m, comm_mode=comm_mode)
        chain = PrefixState.initial(n, m, comm, comm_mode=comm_mode)
        for k in range(n):
            direct = sim.prefix_state(k)
            assert chain.k == direct.k
            assert chain.prefix_fwd == direct.prefix_fwd
            assert chain.prefix_bwd == direct.prefix_bwd
            assert chain._start == direct._start
            assert chain._end == direct._end
            if k < n - 1:
                chain = chain.extend(fwd[k], bwd[k])


class TestSuffixBatchMatchesCold:
    @settings(max_examples=60, deadline=None)
    @given(_pipeline_case(max_stages=7), st.data())
    def test_shared_prefix_batch(self, case, data):
        n, m, comm_mode, comm, fwd, bwd = case
        k = data.draw(st.integers(min_value=0, max_value=n - 1), label="cut")
        kk = data.draw(st.integers(min_value=1, max_value=4), label="K")
        rows = [
            (
                tuple(data.draw(_TIMES) for _ in range(n - k)),
                tuple(data.draw(_TIMES) for _ in range(n - k)),
            )
            for _ in range(kk)
        ]
        state = PipelineSim(
            StageTimes(fwd, bwd, comm), m, comm_mode=comm_mode
        ).prefix_state(k)
        batch = SuffixSimBatch(
            state, [r[0] for r in rows], [r[1] for r in rows]
        )
        its = batch.iteration_times().tolist()
        sus = batch.startup_overheads().tolist()
        for j, (sf, sb) in enumerate(rows):
            cold = PipelineSim(
                StageTimes(fwd[:k] + sf, bwd[:k] + sb, comm),
                m, comm_mode=comm_mode,
            ).run()
            assert its[j] == cold.iteration_time
            assert sus[j] == cold.startup_overhead
            _assert_results_identical(cold, batch.result(j))

    @settings(max_examples=40, deadline=None)
    @given(_pipeline_case(max_stages=6), st.data())
    def test_per_row_prefix_states(self, case, data):
        n, m, comm_mode, comm, _, _ = case
        k = data.draw(st.integers(min_value=0, max_value=n - 1), label="cut")
        kk = data.draw(st.integers(min_value=1, max_value=3), label="K")
        fulls = [
            (
                tuple(data.draw(_TIMES) for _ in range(n)),
                tuple(data.draw(_TIMES) for _ in range(n)),
            )
            for _ in range(kk)
        ]
        states = [
            PipelineSim(
                StageTimes(f, b, comm), m, comm_mode=comm_mode
            ).prefix_state(k)
            for f, b in fulls
        ]
        batch = SuffixSimBatch(
            states, [f[k:] for f, _ in fulls], [b[k:] for _, b in fulls]
        )
        its = batch.iteration_times().tolist()
        for j, (f, b) in enumerate(fulls):
            cold = PipelineSim(
                StageTimes(f, b, comm), m, comm_mode=comm_mode
            ).run()
            assert its[j] == cold.iteration_time
            _assert_results_identical(cold, batch.result(j))

    def test_need_start_false_is_identical_and_lazily_upgrades(self):
        fwd, bwd, comm, m = (1.0, 2.0, 1.5), (2.0, 1.0, 2.5), 0.1, 4
        state = PipelineSim(StageTimes(fwd, bwd, comm), m).prefix_state(1)
        rows_f = [(2.0, 1.5), (0.5, 3.0)]
        rows_b = [(1.0, 2.0), (2.5, 0.5)]
        eager = SuffixSimBatch(state, rows_f, rows_b)
        lean = SuffixSimBatch(state, rows_f, rows_b, need_start=False)
        assert lean.iteration_times().tolist() == (
            eager.iteration_times().tolist()
        )
        # start-dependent views trigger a transparent re-evaluation
        assert lean.startup_overheads().tolist() == (
            eager.startup_overheads().tolist()
        )
        _assert_results_identical(eager.result(1), lean.result(1))


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
        with pytest.raises(ValueError, match="suffix columns"):
            SuffixSimBatch(state, [(1.0,)], [(1.0,)])
        other = PipelineSim(
            StageTimes((1.0, 2.0, 3.0), (1.0,) * 3, 0.2), 2
        ).prefix_state(1)
        with pytest.raises(ValueError, match="share"):
            SuffixSimBatch(
                [state, other], [(1.0, 1.0)] * 2, [(1.0, 1.0)] * 2
            )
