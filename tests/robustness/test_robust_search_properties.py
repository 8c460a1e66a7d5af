"""Property suite: the robust searches against their literal specifications.

* The robust oracle's branch-and-bound (``prune=True``, the default:
  the nominal level lattice with per-draw bounds) must return the
  ``prune=False`` enumeration's partition, ``robust_value`` and
  iteration time bit for bit — every statistic, both comm modes, depth
  1-6, any micro-batch count, tie-heavy and zero-cost profiles.  A
  narrow probe and narrow scoring chunks, a forced seed climb and a
  dominance memo fired by zero-cost blocks must not change the answer
  either.  The lattice's reduced per-draw lower bound of every
  candidate is at most that candidate's objective.
* The robust planner scores its considered candidates in one batched
  sweep after the search.  Its spec is the per-candidate replay: walk
  the nominal planner's evaluation history (the order candidates are
  first considered), score each fitting one with
  :func:`robust_objective_value` and keep strict improvements.  Plan,
  ``robust_value``, ``evaluations``, ``history`` and
  ``incumbent_updates`` must all match, and the same replay scored by
  nominal time must give the nominal planner's plan.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import TrainConfig
from repro.core import exhaustive
from repro.core.exhaustive import exhaustive_partition, iter_partitions
from repro.core.planner import _UnitSpace, plan_partition
from repro.hardware.device import DEFAULT_CLUSTER_HW
from repro.models.zoo import GPT2_345M
from repro.profiling import profile_model
from repro.robustness import (
    CommDegradation,
    RobustObjective,
    StageCostNoise,
    Straggler,
    robust_objective_batch,
    robust_objective_value,
)

from tests.core.test_search_properties import make_profile

_COMM_MODES = ("paper", "edges")
_STATISTICS = ("mean", "p95", "max")
#: few distinct values, zeros included: many candidates tie exactly.
_TIE_HEAVY = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0])
_CONTINUOUS = st.floats(0.05, 4.0)


@st.composite
def _objective(draw, depth):
    stack = []
    if draw(st.booleans()):
        stack.append(StageCostNoise(draw(st.sampled_from([0.0, 0.1, 0.3]))))
    if draw(st.booleans()):
        stack.append(Straggler(
            draw(st.sampled_from([1.5, 3.0])),
            stage=draw(st.one_of(st.none(), st.integers(0, depth - 1))),
            probability=draw(st.sampled_from([0.2, 1.0])),
        ))
    if draw(st.booleans()):
        stack.append(CommDegradation(
            draw(st.sampled_from([2.0, 4.0])),
            probability=draw(st.sampled_from([0.3, 1.0])),
        ))
    if not stack:
        stack.append(StageCostNoise(0.2))
    return RobustObjective(
        tuple(stack),
        draws=draw(st.sampled_from([1, 4, 16])),
        seed=draw(st.integers(0, 50)),
        statistic=draw(st.sampled_from(_STATISTICS)),
    )


@st.composite
def _case(draw, max_blocks=12, min_depth=1):
    n = draw(st.integers(min_depth, max_blocks))
    depth = draw(st.integers(min_depth, min(n, 6)))
    cost = _TIE_HEAVY if draw(st.booleans()) else _CONTINUOUS
    fwd = draw(st.lists(cost, min_size=n, max_size=n))
    bwd = draw(st.lists(cost, min_size=n, max_size=n))
    comm = draw(st.sampled_from([0.0, 0.25, 1.0]))
    m = draw(st.integers(1, 12))
    objective = draw(_objective(depth))
    # The probe constant sets the probe's width (probe // draws
    # candidates); a narrow probe makes the bounds do the work.
    probe = draw(st.sampled_from([1, objective.draws, 4096]))
    return make_profile(fwd, bwd, comm), depth, m, objective, probe


def _hex(result):
    return float(result.robust_value).hex()


def _assert_matches_enumeration(profile, depth, m, objective, comm_mode,
                                **patches):
    """The pruned robust search, with ``exhaustive`` constants patched,
    against the enumeration: sizes, ``robust_value`` and iteration time
    bit for bit."""
    spec = exhaustive_partition(
        profile, depth, m, robust=objective, prune=False,
        comm_mode=comm_mode,
    )
    with pytest.MonkeyPatch.context() as patch:
        for name, value in patches.items():
            patch.setattr(exhaustive, name, value)
        pruned = exhaustive_partition(
            profile, depth, m, robust=objective, comm_mode=comm_mode,
        )
    assert pruned.partition.sizes == spec.partition.sizes
    assert _hex(pruned) == _hex(spec)
    assert pruned.iteration_time == spec.iteration_time
    assert 1 <= pruned.evaluations <= spec.evaluations == spec.space
    return pruned


class TestRobustOracle:
    @settings(max_examples=150, deadline=None)
    @given(_case(), st.sampled_from(_COMM_MODES))
    def test_pruned_matches_enumeration(self, case, comm_mode):
        profile, depth, m, objective, probe = case
        _assert_matches_enumeration(
            profile, depth, m, objective, comm_mode, _PROBE_COLS=probe,
        )

    @settings(max_examples=60, deadline=None)
    @given(_case(), st.sampled_from(_COMM_MODES), st.integers(1, 64),
           st.integers(1, 64))
    def test_narrow_probe_and_chunks_match_enumeration(
        self, case, comm_mode, probe, block
    ):
        # A probe of a few kernel columns leaves most of the leaf level
        # to the bound filter, and chunks of a few columns score the
        # survivors one or two candidates per kernel sweep.
        profile, depth, m, objective, _ = case
        _assert_matches_enumeration(
            profile, depth, m, objective, comm_mode,
            _PROBE_COLS=probe, _ANALYTIC_BLOCK=block,
        )

    @settings(max_examples=60, deadline=None)
    @given(_case(min_depth=2), st.sampled_from(_COMM_MODES))
    def test_seed_climb_matches_enumeration(self, case, comm_mode):
        # The climb runs on every space and scores its moves under the
        # objective; its incumbent tightens the admission limit.
        profile, depth, m, objective, probe = case
        _assert_matches_enumeration(
            profile, depth, m, objective, comm_mode,
            _PROBE_COLS=probe, _CLIMB_MIN_SPACE=1,
        )

    @pytest.mark.parametrize("comm_mode", _COMM_MODES)
    @pytest.mark.parametrize("statistic", _STATISTICS)
    def test_zero_cost_blocks_fire_dominance_memo(self, comm_mode, statistic):
        # Zero-cost blocks make twin prefixes (equal stage costs at equal
        # stage indices), which are twins under every draw too.
        fwd = [1.0, 0.0, 0.0, 2.0, 0.0, 1.5, 0.0, 1.0, 0.0, 0.5, 2.0, 0.0]
        bwd = [2.0, 0.0, 0.0, 3.0, 0.0, 2.5, 0.0, 2.0, 0.0, 1.0, 3.0, 0.0]
        objective = RobustObjective(
            (StageCostNoise(0.2), Straggler(1.5, probability=0.3)),
            draws=16, seed=7, statistic=statistic,
        )
        pruned = _assert_matches_enumeration(
            make_profile(fwd, bwd, 0.25), 5, 6, objective, comm_mode,
        )
        assert pruned.dominance_pruned > 0

    @pytest.mark.parametrize("statistic", _STATISTICS)
    @settings(max_examples=40, deadline=None)
    @given(case=_case(max_blocks=10), comm_mode=st.sampled_from(_COMM_MODES))
    def test_lattice_bound_is_below_every_objective(
        self, case, comm_mode, statistic
    ):
        # Every candidate's per-draw bound — the max of its stages'
        # level bounds (own and suffix) and its last stage's leaf bound
        # — reduced with the statistic is at most its objective as the
        # enumeration scores it.  A path-dependent sum (prefix, round
        # trip, suffix min-max) left unscaled by its smallest factor
        # breaks this.
        profile, depth, m, objective, _ = case
        objective = dataclasses.replace(objective, statistic=statistic)
        fwd, bwd = profile.fwd_times(), profile.bwd_times()
        comm = profile.comm_time
        n = len(fwd)
        target = exhaustive._Objective(comm, m, comm_mode, objective, depth)
        bounds = exhaustive._Bounds(
            fwd, bwd, comm, depth, m, comm_mode, target,
        )
        sizes = np.array(list(iter_partitions(n, depth)))
        starts = np.cumsum(sizes, axis=1) - sizes
        per_draw = bounds.leaf_lb[starts[:, -1]]
        for s in range(depth - 1):
            fixb, remb = bounds.level(s, np.arange(n * n))
            np.maximum(
                per_draw, fixb[starts[:, s] * n + sizes[:, s] - 1],
                out=per_draw,
            )
            np.maximum(
                per_draw, remb[starts[:, s] + sizes[:, s]], out=per_draw,
            )
        costs = [exhaustive._stage_sums(fwd, bwd, c) for c in sizes.tolist()]
        values = robust_objective_batch(
            np.array([f for f, _ in costs]), np.array([b for _, b in costs]),
            comm, m, objective.factors(depth), statistic,
            comm_mode=comm_mode,
        )
        limit = values * exhaustive._PRUNE_SLACK
        assert np.all(target.reduce(per_draw) <= limit)

    def test_stage_costs_sum_left_to_right(self):
        # A compensated sum (the built-in ``sum`` from Python 3.12)
        # gives 1.0000000000000002 here; every path must give the plain
        # left fold 1.0, or the two robust paths could differ by an ulp.
        fwd = [1.0, 1e-16, 1e-16, 2.0]
        bwd = [3.0, 1e-16, 1e-16, 1.0]
        assert exhaustive._stage_sums(fwd, bwd, (3, 1)) == (
            (1.0, 2.0), (3.0, 1.0),
        )
        SF, SB = exhaustive._slice_sum_tables(fwd, bwd)
        assert (SF[0, 2], SB[0, 2]) == (1.0, 3.0)
        objective = RobustObjective(
            (StageCostNoise(0.2),), draws=8, seed=1, statistic="p95",
        )
        profile = make_profile(fwd, bwd, 0.25)
        spec, pruned = (
            exhaustive_partition(
                profile, 2, 4, robust=objective, prune=prune,
            )
            for prune in (False, True)
        )
        assert pruned.partition.sizes == spec.partition.sizes
        assert _hex(pruned) == _hex(spec)

    @pytest.mark.parametrize("statistic", _STATISTICS)
    def test_bounds_prune_most_of_the_space(
        self, tiny_profile, statistic, monkeypatch
    ):
        objective = RobustObjective(
            (StageCostNoise(0.1), Straggler(2.0, probability=0.3)),
            draws=32, seed=5, statistic=statistic,
        )
        # A 32-column probe is a single candidate under 32 draws.
        monkeypatch.setattr(exhaustive, "_PROBE_COLS", 32)
        result = exhaustive_partition(
            tiny_profile, 3, 6, robust=objective,
        )
        spec = exhaustive_partition(
            tiny_profile, 3, 6, robust=objective, prune=False,
        )
        assert result.partition.sizes == spec.partition.sizes
        assert _hex(result) == _hex(spec)
        assert result.pruned > result.space // 2


def _select(candidates):
    """Strict ``<`` selection in order: (winner, value, updates)."""
    best, best_value, updates = None, None, 0
    for sizes, value in candidates:
        if best_value is None or value < best_value:
            best, best_value, updates = sizes, value, updates + 1
    return best, best_value, updates


def _assert_matches_replay(profile, depth, m, objective, **kwargs):
    """The robust planner against its per-candidate spec.

    The nominal planner's history lists candidates in the order the
    search first considers them.  Replaying the strict ``<`` selection
    over the fitting ones must give the nominal plan back (so the
    nominal planner is unchanged), and the same replay scored with
    :func:`robust_objective_value` must give the robust plan.
    """
    nominal = plan_partition(profile, depth, m, **kwargs)
    result = plan_partition(
        profile, depth, m, robust=objective, **kwargs
    )
    space = _UnitSpace(profile, "sublayer")
    cap = kwargs.get("memory_cap")
    fitting = [
        (sizes, t) for sizes, t in nominal.history
        if cap is None or max(space.memory.stage_peaks(sizes, m)) <= cap
    ]
    sizes, value, updates = _select(fitting)
    assert nominal.partition.sizes == sizes
    assert nominal.iteration_time == value
    assert nominal.incumbent_updates == updates

    factors = objective.factors(depth)
    sizes, value, updates = _select(
        (sizes, robust_objective_value(
            space.stage_times(sizes), m, factors, objective.statistic,
            comm_mode=kwargs.get("comm_mode", "paper"),
        ))
        for sizes, _ in fitting
    )
    assert result.partition.sizes == sizes
    assert result.robust_value.hex() == value.hex()
    assert result.incumbent_updates == updates
    assert result.evaluations == nominal.evaluations
    assert result.history == nominal.history


@st.composite
def _planner_case(draw):
    n = draw(st.integers(2, 14))
    depth = draw(st.integers(1, min(n, 6)))
    cost = _TIE_HEAVY if draw(st.booleans()) else _CONTINUOUS
    fwd = draw(st.lists(cost, min_size=n, max_size=n))
    bwd = draw(st.lists(cost, min_size=n, max_size=n))
    comm = draw(st.sampled_from([0.0, 0.25, 1.0]))
    return (
        make_profile(fwd, bwd, comm), depth, draw(st.integers(1, 16)),
        draw(_objective(depth)),
    )


@pytest.fixture(scope="module")
def hungry_profile():
    """GPT-2 345M at micro-batch 32: time balance alone breaks the GPU
    memory cap, so the capped search must skip unfit candidates."""
    train = TrainConfig(micro_batch_size=32, global_batch_size=512)
    return profile_model(GPT2_345M, DEFAULT_CLUSTER_HW, train)


class TestRobustPlanner:
    @settings(max_examples=60, deadline=None)
    @given(_planner_case(), st.sampled_from(_COMM_MODES))
    def test_batched_selection_matches_replay(self, case, comm_mode):
        profile, depth, m, objective = case
        _assert_matches_replay(
            profile, depth, m, objective, comm_mode=comm_mode
        )

    @pytest.mark.parametrize("statistic", _STATISTICS)
    @pytest.mark.parametrize("depth", [2, 3])
    def test_memory_cap(self, hungry_profile, depth, statistic):
        objective = RobustObjective(
            (StageCostNoise(0.1), CommDegradation(2.0, probability=0.5)),
            draws=16, seed=4, statistic=statistic,
        )
        cap = hungry_profile.hardware.gpu_memory
        _assert_matches_replay(
            hungry_profile, depth, 8, objective, memory_cap=cap
        )
