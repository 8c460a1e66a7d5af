"""Property tests for the pruned oracle, and the batched simulator.

* The kernel-scored branch-and-bound oracle (``prune=True``) returns
  the exact brute-force (``prune=False``) argmin — same partition, same
  iteration time — including on tie-heavy profiles where many
  partitions share the optimum.  The perf work must never break this.
* The oracle's suffix min-max table equals a brute-force min over every
  split of each suffix.
* Every pruning bound of a complete partition's stages is at most its
  simulated iteration time, per draw, in both comm modes; one
  hand-computed paper-mode case pins the bounds to their formulas.
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
from repro.robustness import (
    CommDegradation,
    RobustObjective,
    StageCostNoise,
    Straggler,
    robust_iteration_times,
)

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
        three-column leaf chunks (three not dividing the column count)
        give the default chunk's argmin, time, evaluation and dominance
        counts.  Zero-cost blocks make twin prefixes, so
        the dominance memo drops some mid-level; depth up to 6 walks
        three and more parent-pointer levels."""
        fwd, bwd = zip(*blocks)
        profile = make_profile(fwd, bwd, 0.25)
        big = exhaustive_partition(profile, p, 4)
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(exhaustive, "_ANALYTIC_BLOCK", block)
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
        st.sampled_from(["paper", "edges"]),
    )
    def test_minmax_is_brute_min_of_max_stage_load(
        self, blocks, p, comm_mode
    ):
        """``minmax[k][pos]`` is the smallest max stage load over every
        split of blocks ``pos..n-1`` into ``k`` stages, a stage's load
        being its difference of the left-fold prefix sums of ``f + b``
        (``inf`` where ``k`` exceeds the blocks left), in either comm
        mode."""
        fwd, bwd = zip(*blocks)
        n = len(fwd)
        p = min(p, n)
        prefw = [0.0]
        for f, b in zip(fwd, bwd):
            prefw.append(prefw[-1] + (f + b))
        bounds = exhaustive._Bounds(fwd, bwd, 0.25, p, 4, comm_mode)
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


@st.composite
def _bound_case(draw):
    """A profile, a complete partition of it into ``p`` stages, ``m``, a
    comm mode and a robust objective (``None`` for nominal)."""
    p = draw(st.integers(min_value=1, max_value=10))
    n = draw(st.integers(min_value=p, max_value=p + 4))
    m = draw(st.integers(min_value=1, max_value=3 * p + 2))
    value = _TIE_HEAVY if draw(st.booleans()) else _CONTINUOUS
    fwd = draw(st.lists(value | st.just(0.0), min_size=n, max_size=n))
    bwd = draw(st.lists(value | st.just(0.0), min_size=n, max_size=n))
    comm = draw(st.sampled_from([0.0, 0.25, 1.0]) | _CONTINUOUS)
    cuts = sorted(draw(st.sets(
        st.integers(min_value=1, max_value=n - 1),
        min_size=p - 1, max_size=p - 1,
    ))) if p > 1 else []
    sizes = tuple(np.diff([0, *cuts, n]).tolist())
    comm_mode = draw(st.sampled_from(["paper", "edges"]))
    robust = None
    if draw(st.booleans()):
        robust = RobustObjective(
            draw(st.sampled_from([
                (StageCostNoise(0.3),),
                (Straggler(3.0, probability=0.5),),
                (StageCostNoise(0.1), CommDegradation(4.0, probability=0.5)),
            ])),
            draws=draw(st.sampled_from([1, 4])),
            seed=draw(st.integers(0, 50)),
        )
    return fwd, bwd, comm, sizes, m, comm_mode, robust


class TestBoundsBelowObjective:
    @settings(max_examples=200, deadline=None)
    @given(_bound_case())
    def test_every_stage_bound_is_below_the_simulated_time(self, case):
        """Each stage's level bounds (straggler and round-trip + tail,
        and the suffix relaxation after it) and the last stage's
        ``leaf_lb`` are at most the partition's iteration time — per
        draw under a robust objective — up to ``_PRUNE_SLACK``."""
        fwd, bwd, comm, sizes, m, comm_mode, robust = case
        n, p = len(fwd), len(sizes)
        target = exhaustive._Objective(comm, m, comm_mode, robust, p)
        bounds = exhaustive._Bounds(fwd, bwd, comm, p, m, comm_mode, target)
        f, b = exhaustive._stage_sums(fwd, bwd, sizes)
        times = StageTimes(f, b, comm)
        if robust is None:
            sim = PipelineSim(times, m, comm_mode=comm_mode).run()
            limit = sim.iteration_time
        else:
            limit = robust_iteration_times(
                times, m, robust.factors(p), comm_mode=comm_mode,
            )
        limit = limit * exhaustive._PRUNE_SLACK
        starts = np.cumsum(sizes) - sizes
        assert np.all(bounds.leaf_lb[starts[-1]] <= limit)
        for s in range(p - 1):
            fixb, remb = bounds.level(
                s, np.array([starts[s] * n + sizes[s] - 1]),
            )
            assert np.all(fixb[0] <= limit)
            assert np.all(remb[starts[s] + sizes[s]] <= limit)

    def test_paper_bounds_pinned_to_the_formula(self):
        """Three one-block stages, m = 4, Comm = 0.5 (loads 3, 8, 2,
        W = 13).  Paper mode adds ``(m*c_x - [x>0])*Comm`` to the
        straggler bound and ``((s_x-1)*c_x + w_x*[x<p-1])*Comm`` to the
        round-trip + tail bound, with ``c = (1, 2, 1)``, warmups
        ``w = (2, 1, 0)`` and steady pairs ``s = (2, 3, 4)``:

        ====== ===================== ========================
        stage  straggler             round-trip + tail
        ====== ===================== ========================
        0      0 + 0 + 12 + 2 = 14   15 + 7 + 1.5 = 23.5
        1      3 + 1 + 32 + 3.5      15 + 20 + 2.5 = 37.5
               = 39.5
        2      11 + 2 + 8 + 1.5      15 + 6 + 1.5 = 22.5
               = 22.5
        ====== ===================== ========================

        The round-trip term sets stage 0's bound and the straggler term
        stage 1's, so weakening either changes a value.  Edges mode
        keeps the cross-edge charges only."""
        fwd, bwd = (1.0, 4.0, 1.0), (2.0, 4.0, 1.0)
        expect = {"paper": (23.5, 39.5, 22.5), "edges": (22.0, 36.0, 21.0)}
        for comm_mode, (b0, b1, leaf) in expect.items():
            bounds = exhaustive._Bounds(fwd, bwd, 0.5, 3, 4, comm_mode)
            fix0, _ = bounds.level(0, np.array([0]))
            fix1, _ = bounds.level(1, np.array([1 * 3 + 0]))
            assert (fix0[0], fix1[0], bounds.leaf_lb[2]) == (b0, b1, leaf)
            time = PipelineSim(
                StageTimes(fwd, bwd, 0.5), 4, comm_mode=comm_mode,
            ).run().iteration_time
            assert max(b0, b1, leaf) <= time
