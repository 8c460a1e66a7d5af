"""Property tests for the pruned oracle, and the batched simulator.

* The kernel-scored branch-and-bound oracle (``prune=True``) returns
  the exact brute-force (``prune=False``) argmin — same partition, same
  iteration time — including on tie-heavy profiles where many
  partitions share the optimum.  The perf work must never break this.
* The oracle's suffix min-max table equals a brute-force min over every
  split of each suffix.
* :class:`PipelineSimBatch` reads out ``K`` scalar :class:`PipelineSim`
  runs and checks its arguments.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import HardwareConfig, ModelConfig, TrainConfig
from repro.core.analytic_sim import PipelineSim, PipelineSimBatch
from repro.core import exhaustive
from repro.core.exhaustive import exhaustive_partition, iter_partitions
from repro.core.partition import StageTimes
from repro.models.blocks import Block, BlockKind
from repro.profiling.modelconfig import BlockProfile, ModelProfile

_MODEL = ModelConfig(name="synthetic", num_layers=1, hidden_size=64, num_heads=4)
_HW = HardwareConfig()
_TRAIN = TrainConfig(micro_batch_size=1, global_batch_size=8)

#: discrete time values — draws collide constantly, so random profiles are
#: saturated with exact ties (the argmin tie-break's worst case).
_TIE_HEAVY = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])
_CONTINUOUS = st.floats(min_value=0.01, max_value=5.0, allow_nan=False)


def make_profile(fwd, bwd, comm):
    """A synthetic ModelProfile carrying exactly these block times."""
    blocks = tuple(
        BlockProfile(
            block=Block(index=i, kind=BlockKind.ATTENTION, layer_index=i),
            fwd_time=f,
            bwd_time=b,
            params=1.0,
            activation_out_bytes=1.0,
            stash_bytes=1.0,
            workspace_bytes=1.0,
        )
        for i, (f, b) in enumerate(zip(fwd, bwd))
    )
    return ModelProfile(
        model=_MODEL, hardware=_HW, train=_TRAIN, blocks=blocks,
        comm_time=comm, boundary_bytes=1.0,
    )


class TestBatchMatchesScalar:
    def test_bit_exact(self):
        """Row ``k`` is ``PipelineSim`` run ``k``, with a scalar or
        per-row comm (the kernel's bitwise property lives in
        tests/sim/test_analytic.py)."""
        fwd = [(1.0, 2.0, 1.5), (2.0, 2.0, 0.5)]
        bwd = [(2.0, 1.0, 3.0), (1.0, 1.0, 1.0)]
        for comm in (0.5, [0.5, 0.25]):
            batch = PipelineSimBatch(fwd, bwd, comm, 4, comm_mode="edges")
            its = batch.iteration_times()
            starts = batch.startup_overheads()
            for i, c in enumerate(np.broadcast_to(comm, (2,)).tolist()):
                scalar = PipelineSim(
                    StageTimes(fwd[i], bwd[i], c), 4, comm_mode="edges"
                ).run()
                assert its[i] == scalar.iteration_time
                assert starts[i] == scalar.startup_overhead
                assert batch.result(i) == scalar

    def test_mixed_comm_rejected(self):
        with pytest.raises(ValueError, match="share one comm"):
            PipelineSimBatch.from_stage_times(
                [StageTimes((1.0,), (2.0,), 0.1),
                 StageTimes((1.0,), (2.0,), 0.2)],
                4,
            )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PipelineSimBatch(
                np.ones((2, 3)), np.ones((2, 4)), 0.1, 4
            )


class TestPrunedMatchesBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=4, max_value=9),     # blocks
        st.data(),
    )
    def test_same_argmin(self, n, data):
        p = data.draw(st.integers(min_value=1, max_value=min(n, 5)))
        m = data.draw(st.integers(min_value=1, max_value=8))
        comm_mode = data.draw(st.sampled_from(["paper", "edges"]))
        ties = data.draw(st.booleans())
        value = _TIE_HEAVY if ties else _CONTINUOUS
        fwd = [data.draw(value) for _ in range(n)]
        bwd = [data.draw(value) for _ in range(n)]
        comm = data.draw(st.sampled_from([0.0, 0.25, 1.0]))
        profile = make_profile(fwd, bwd, comm)
        brute = exhaustive_partition(
            profile, p, m, comm_mode=comm_mode, prune=False
        )
        pruned = exhaustive_partition(
            profile, p, m, comm_mode=comm_mode, prune=True
        )
        assert pruned.partition.sizes == brute.partition.sizes
        assert pruned.iteration_time == brute.iteration_time  # bitwise
        assert pruned.evaluations <= brute.evaluations

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(_TIE_HEAVY | st.just(0.0), _TIE_HEAVY | st.just(0.0)),
            min_size=6, max_size=10,
        ),
        st.integers(min_value=2, max_value=6),
        st.sampled_from([1, 3, None]),
    )
    @example(  # twins dropped on levels 1 and 2 of a depth-6 search
        blocks=list(zip(
            [3.0, 0.5, 0.0, 1.5, 1.5, 1.0, 0.5, 3.0, 0.0, 0.5],
            [2.0, 0.5, 0.0, 0.5, 1.5, 1.5, 1.0, 2.0, 0.5, 0.0],
        )),
        p=6, block=3,
    )
    def test_small_chunks_change_nothing(self, blocks, p, block):
        """Chunked sweeps must not affect the search: one- and
        three-column leaf chunks (sieved, and three not dividing the
        column count) give the default chunk's argmin, time, evaluation
        and dominance counts.  Zero-cost blocks make twin prefixes, so
        the dominance memo drops some mid-level; depth up to 6 walks
        three and more parent-pointer levels."""
        fwd, bwd = zip(*blocks)
        profile = make_profile(fwd, bwd, 0.25)
        big = exhaustive_partition(profile, p, 4)
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(exhaustive, "_ANALYTIC_BLOCK", block)
                patch.setattr(exhaustive, "_SIEVE_MIN_COLS", block)
            tiny = exhaustive_partition(profile, p, 4)
        assert tiny.partition.sizes == big.partition.sizes
        assert tiny.iteration_time == big.iteration_time
        assert tiny.evaluations == big.evaluations
        assert tiny.dominance_pruned == big.dominance_pruned

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=4, max_value=10),    # blocks
        st.sampled_from([1, 3]),                   # probe columns
        st.data(),
    )
    def test_tiny_probe_gives_brute_argmin(self, n, probe, data):
        """A one- or three-column probe leaves a looser incumbent for the
        leaf-bound filter, so more columns survive it; the answer is
        still the brute force's partition and time."""
        p = data.draw(st.integers(min_value=2, max_value=min(n, 6)))
        m = data.draw(st.integers(min_value=1, max_value=8))
        comm_mode = data.draw(st.sampled_from(["paper", "edges"]))
        value = _TIE_HEAVY if data.draw(st.booleans()) else _CONTINUOUS
        fwd = [data.draw(value) for _ in range(n)]
        bwd = [data.draw(value) for _ in range(n)]
        comm = data.draw(st.sampled_from([0.0, 0.25, 1.0]))
        profile = make_profile(fwd, bwd, comm)
        brute = exhaustive_partition(
            profile, p, m, comm_mode=comm_mode, prune=False
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exhaustive, "_PROBE_COLS", probe)
            pruned = exhaustive_partition(profile, p, m, comm_mode=comm_mode)
        assert pruned.partition.sizes == brute.partition.sizes
        assert pruned.iteration_time == brute.iteration_time  # bitwise

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=4, max_value=10),    # blocks
        st.data(),
    )
    def test_seed_climb_gives_brute_argmin(self, n, data):
        """With the climb forced on every space, its tightened incumbent
        still leaves the brute force's partition and time."""
        p = data.draw(st.integers(min_value=2, max_value=min(n, 6)))
        m = data.draw(st.integers(min_value=1, max_value=8))
        comm_mode = data.draw(st.sampled_from(["paper", "edges"]))
        value = _TIE_HEAVY if data.draw(st.booleans()) else _CONTINUOUS
        fwd = [data.draw(value | st.just(0.0)) for _ in range(n)]
        bwd = [data.draw(value | st.just(0.0)) for _ in range(n)]
        comm = data.draw(st.sampled_from([0.0, 0.25, 1.0]))
        profile = make_profile(fwd, bwd, comm)
        brute = exhaustive_partition(
            profile, p, m, comm_mode=comm_mode, prune=False
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exhaustive, "_CLIMB_MIN_SPACE", 1)
            pruned = exhaustive_partition(profile, p, m, comm_mode=comm_mode)
        assert pruned.partition.sizes == brute.partition.sizes
        assert pruned.iteration_time == brute.iteration_time  # bitwise
        assert pruned.evaluations <= brute.evaluations


class TestSuffixMinMax:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(_TIE_HEAVY | st.just(0.0), _CONTINUOUS | st.just(0.0)),
            min_size=1, max_size=10,
        ),
        st.integers(min_value=1, max_value=10),
    )
    def test_minmax_is_brute_min_of_max_stage_load(self, blocks, p):
        """``minmax[k][pos]`` is the smallest max stage load over every
        split of blocks ``pos..n-1`` into ``k`` stages, a stage's load
        being its difference of the left-fold prefix sums of ``f + b``
        (``inf`` where ``k`` exceeds the blocks left)."""
        fwd, bwd = zip(*blocks)
        n = len(fwd)
        p = min(p, n)
        prefw = [0.0]
        for f, b in zip(fwd, bwd):
            prefw.append(prefw[-1] + (f + b))
        bounds = exhaustive._Bounds(fwd, bwd, 0.25, p, 4)
        assert bounds.prefw.tolist() == prefw
        for k in range(1, p + 1):
            for pos in range(n + 1):
                expect = float("inf")
                if k <= n - pos:
                    for sizes in iter_partitions(n - pos, k):
                        edges = np.cumsum((pos,) + sizes).tolist()
                        expect = min(expect, max(
                            prefw[b] - prefw[a]
                            for a, b in zip(edges, edges[1:])
                        ))
                assert bounds.minmax[k][pos] == expect
