"""Boundary fuzz suite: malformed input at the public API fails early.

The contract (README, "Errors"): a wrong type raises ``TypeError``, a
wrong value ``ValueError``, and the message names the argument.  Each
table below maps one entry point's argument to a call; hypothesis draws
inputs from each class and the class's outcome is the only one accepted:

========================================  ==================================
input                                      outcome
========================================  ==================================
bool, float or str count                  ``TypeError`` naming the argument
integer count below its minimum           ``ValueError`` naming the argument
numpy-integer count                       the result of the equal ``int``
bool or str cost, cap or factor           ``TypeError`` naming the argument
NaN, inf or negative cost, cap or factor  ``ValueError`` naming the argument
zero cap, slowdown or comm factor         ``ValueError`` naming the argument
probability or efficiency above 1         ``ValueError`` naming it
non-bool flag, non-str choice             ``TypeError`` naming the argument
unknown choice                            ``ValueError`` naming the argument
========================================  ==================================

Costs reach the searches only through a :class:`ModelProfile`, which
rejects bad block times itself.  :class:`TestDomain` pins the outcome of
each well-typed edge case (depth above the block count, m < depth,
m = 1, a single block, zero costs), and :class:`TestPlanCli` the exit of
``repro plan`` for bad flag values.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cli import main
from repro.config import HardwareConfig
from repro.core.analytic_sim import PipelineSim
from repro.core.balance_dp import BalanceTable
from repro.core.exhaustive import exhaustive_partition
from repro.core.partition import PartitionScheme, StageTimes
from repro.core.planner import plan_partition
from repro.core.slicer import solve_slice_count
from repro.core.strategy import autopipe_config, autotune_config
from repro.robustness import (
    CommDegradation,
    RobustObjective,
    StageCostNoise,
    Straggler,
)
from repro.runtime.trainer import run_pipeline
from repro.sim.analytic import frontier_times
from repro.sim.slice_eval import evaluate_slice_counts

from tests.core.test_search_properties import make_profile

#: (bad integer argument, expected error) pairs shared by both search
#: entry points; the error message must name the argument.  Their values
#: are also the fixed examples of every count below.
BAD_COUNTS = [
    ("num_stages", True, TypeError),
    ("num_stages", 2.0, TypeError),
    ("num_stages", 0, ValueError),
    ("num_micro_batches", True, TypeError),
    ("num_micro_batches", 1.5, TypeError),
    ("num_micro_batches", 0, ValueError),
]


def assert_rejects_bad_counts(search, profile, bad_counts=BAD_COUNTS):
    """``search`` raises a typed error naming each malformed argument."""
    for name, value, error in bad_counts:
        kwargs = {"num_stages": 3, "num_micro_batches": 8, name: value}
        with pytest.raises(error, match=name):
            search(profile, **kwargs)


_PROFILE = make_profile(
    [1.0, 2.0, 1.0, 3.0, 1.0, 2.0], [2.0, 4.0, 2.0, 6.0, 2.0, 4.0], 0.1
)
_SINGLE = make_profile([1.0], [2.0], 0.1)
_PARTITION = PartitionScheme.from_sizes([2, 2, 2])
_TIMES = StageTimes((1.0, 2.0, 1.5), (2.0, 1.0, 3.0), 0.1)
_COSTS = np.ones((2, 3))
_NOISE = (StageCostNoise(0.1),)

#: Count arguments: ``id -> (name, minimum, call)``, where ``call(v)``
#: passes ``v`` as the argument and valid values everywhere else.
COUNTS = {
    "plan_partition-num_stages": (
        "num_stages", 1, lambda v: plan_partition(_PROFILE, v, 8)),
    "plan_partition-num_micro_batches": (
        "num_micro_batches", 1, lambda v: plan_partition(_PROFILE, 3, v)),
    "plan_partition-max_evaluations": (
        "max_evaluations", 1,
        lambda v: plan_partition(_PROFILE, 3, 8, max_evaluations=v)),
    "exhaustive_partition-num_stages": (
        "num_stages", 1, lambda v: exhaustive_partition(_PROFILE, v, 8)),
    "exhaustive_partition-num_micro_batches": (
        "num_micro_batches", 1,
        lambda v: exhaustive_partition(_PROFILE, 3, v)),
    "autotune_config-num_gpus": (
        "num_gpus", 1, lambda v: autotune_config(_PROFILE, v)),
    "autopipe_config-num_gpus": (
        "num_gpus", 1, lambda v: autopipe_config(_PROFILE, v, 8)),
    "autopipe_config-global_batch_size": (
        "global_batch_size", 1, lambda v: autopipe_config(_PROFILE, 4, v)),
    "run_pipeline-num_micro_batches": (
        "num_micro_batches", 1,
        lambda v: run_pipeline(_PROFILE, _PARTITION, v)),
    "evaluate_slice_counts-num_micro_batches": (
        "num_micro_batches", 1,
        lambda v: evaluate_slice_counts(_PROFILE, _PARTITION, v, [0, 1])),
    "PipelineSim-num_micro_batches": (
        "num_micro_batches", 1, lambda v: PipelineSim(_TIMES, v).run()),
    "frontier_times-num_micro_batches": (
        "num_micro_batches", 1,
        lambda v: frontier_times(_COSTS, _COSTS, 0.1, v)),
    "solve_slice_count-num_micro_batches": (
        "num_micro_batches", 1, lambda v: solve_slice_count(_TIMES, v)),
    "RobustObjective-draws": (
        "draws", 1, lambda v: RobustObjective(_NOISE, draws=v)),
    "RobustObjective-seed": (
        "seed", 0, lambda v: RobustObjective(_NOISE, seed=v)),
    "Straggler-stage": ("stage", 0, lambda v: Straggler(2.0, v)),
}

#: Real scalars: ``id -> (name, positive, call)``.
REALS = {
    "plan_partition-memory_cap": (
        "memory_cap", True,
        lambda v: plan_partition(_PROFILE, 3, 8, memory_cap=v)),
    "StageTimes-comm": (
        "comm", False, lambda v: StageTimes((1.0,), (1.0,), v)),
    "StageCostNoise-sigma": ("sigma", False, lambda v: StageCostNoise(v)),
    "Straggler-slowdown": ("slowdown", True, lambda v: Straggler(v)),
    "Straggler-probability": (
        "probability", False, lambda v: Straggler(2.0, probability=v)),
    "CommDegradation-factor": (
        "factor", True, lambda v: CommDegradation(v)),
    "CommDegradation-probability": (
        "probability", False, lambda v: CommDegradation(2.0, probability=v)),
    **{
        f"BlockProfile-{name}": (
            f"BlockProfile.{name}", False,
            lambda v, name=name: dataclasses.replace(
                _PROFILE.blocks[0], **{name: v}))
        for name in (
            "fwd_time", "bwd_time", "params", "activation_out_bytes",
            "stash_bytes", "workspace_bytes",
        )
    },
    **{
        f"HardwareConfig-{name}": (
            name, positive, lambda v, name=name: HardwareConfig(**{name: v}))
        for name, positive in (
            ("memory_bandwidth", True),
            ("memory_bandwidth_efficiency", True),
            ("link_latency", False),
            ("kernel_launch_overhead", False),
        )
    },
}


def _with_bad(costs, position, bad):
    out = list(costs)
    out[position % len(out)] = bad
    return out


#: Cost vectors: ``id -> (name, call)``, ``call(position, bad)`` putting
#: ``bad`` at one entry of an otherwise valid vector.
COSTS = {
    "StageTimes-fwd": ("fwd", lambda i, x: StageTimes(
        tuple(_with_bad((1.0, 2.0, 3.0), i, x)), (1.0, 1.0, 1.0), 0.1)),
    "StageTimes-bwd": ("bwd", lambda i, x: StageTimes(
        (1.0, 1.0, 1.0), tuple(_with_bad((1.0, 2.0, 3.0), i, x)), 0.1)),
    "frontier_times-fwd": ("fwd", lambda i, x: frontier_times(
        np.reshape(_with_bad(_COSTS.ravel(), i, x), (2, 3)), _COSTS, 0.1, 4)),
    "frontier_times-bwd": ("bwd", lambda i, x: frontier_times(
        _COSTS, np.reshape(_with_bad(_COSTS.ravel(), i, x), (2, 3)), 0.1, 4)),
    "frontier_times-comm": ("comm", lambda i, x: frontier_times(
        _COSTS, _COSTS, np.array(_with_bad((0.1, 0.1), i, x)), 4)),
    "BlockProfile-fwd_time": ("BlockProfile.fwd_time", lambda i, x: (
        make_profile(_with_bad((1.0, 2.0), i, x), (1.0, 1.0), 0.1))),
    "BlockProfile-bwd_time": ("BlockProfile.bwd_time", lambda i, x: (
        make_profile((1.0, 2.0), _with_bad((1.0, 2.0), i, x), 0.1))),
    "ModelProfile-comm_time": ("ModelProfile.comm_time", lambda i, x: (
        make_profile((1.0,), (1.0,), x))),
    "BalanceTable-weights": ("weights", lambda i, x: BalanceTable(
        _with_bad((1.0, 2.0, 3.0), i, x), 2)),
}

#: Flags and choices: ``id -> (name, options, call)``; ``options`` is
#: ``None`` for a flag.
KNOBS = {
    "plan_partition-cooldown_adjust": ("cooldown_adjust", None, lambda v: (
        plan_partition(_PROFILE, 3, 8, cooldown_adjust=v))),
    "exhaustive_partition-prune": ("prune", None, lambda v: (
        exhaustive_partition(_PROFILE, 3, 8, prune=v))),
    "plan_partition-granularity": ("granularity", ("sublayer", "layer"),
        lambda v: plan_partition(_PROFILE, 3, 8, granularity=v)),
    "plan_partition-comm_mode": ("comm_mode", ("paper", "edges"),
        lambda v: plan_partition(_PROFILE, 3, 8, comm_mode=v)),
    "exhaustive_partition-comm_mode": ("comm_mode", ("paper", "edges"),
        lambda v: exhaustive_partition(_PROFILE, 3, 8, comm_mode=v)),
    "PipelineSim-comm_mode": ("comm_mode", ("paper", "edges"),
        lambda v: PipelineSim(_TIMES, 4, comm_mode=v)),
    "frontier_times-comm_mode": ("comm_mode", ("paper", "edges"),
        lambda v: frontier_times(_COSTS, _COSTS, 0.1, 4, comm_mode=v)),
    "RobustObjective-statistic": ("statistic", ("mean", "p95", "max"),
        lambda v: RobustObjective(_NOISE, statistic=v)),
}

_WRONG_TYPE_COUNT_EXAMPLES = [v for _, v, e in BAD_COUNTS if e is TypeError]


def _examples(values):
    """Pin ``values`` as fixed examples of the decorated test."""
    def decorate(test):
        for value in values:
            test = example(value=value)(test)
        return test
    return decorate


_NOT_INTEGERS = st.one_of(
    st.booleans(),
    st.just(np.bool_(True)),
    st.floats(),
    st.text(max_size=3),
)
_NOT_REALS = st.one_of(
    st.booleans(), st.just(np.bool_(False)), st.text(max_size=3),
)
_NOT_FINITE_OR_NEGATIVE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(max_value=0.0, exclude_max=True),
)
_SETTINGS = settings(max_examples=25, deadline=None)


class TestCounts:
    @pytest.mark.parametrize("entry", COUNTS)
    @_SETTINGS
    @given(value=_NOT_INTEGERS)
    @_examples([*_WRONG_TYPE_COUNT_EXAMPLES, 2.5, 4.0, "4", np.float64(3)])
    def test_wrong_type_is_type_error(self, entry, value):
        name, _, call = COUNTS[entry]
        with pytest.raises(TypeError, match=name):
            call(value)

    @pytest.mark.parametrize("entry", COUNTS)
    @_SETTINGS
    @given(value=st.integers(-10**6, -1), kind=st.sampled_from(
        [int, np.int64, np.int32]))
    @example(value=-1, kind=int)  # BAD_COUNTS' 0, at minimum 1
    def test_below_minimum_is_value_error(self, entry, value, kind):
        name, minimum, call = COUNTS[entry]
        with pytest.raises(ValueError, match=name):
            call(kind(minimum + value))

    @pytest.mark.parametrize("entry", [
        # The autotuner's result carries its wall-clock search time.
        k for k in COUNTS if k != "autotune_config-num_gpus"
    ])
    def test_numpy_integer_gives_the_int_result(self, entry):
        _, minimum, call = COUNTS[entry]
        value = max(minimum, 4)
        assert _digest(call(np.int64(value))) == _digest(call(value))


def _digest(result):
    """What two runs of one entry point on equal inputs must share."""
    if isinstance(result, list):
        return [_digest(r) for r in result]
    if isinstance(result, np.ndarray):
        return result.tolist()
    if hasattr(result, "partition") or hasattr(result, "iteration_time"):
        return (getattr(result, "partition", None),
                getattr(result, "iteration_time", None))
    return result


class TestReals:
    @pytest.mark.parametrize("entry", REALS)
    @_SETTINGS
    @given(value=_NOT_REALS)
    @_examples([True, "1e9", "a"])
    def test_wrong_type_is_type_error(self, entry, value):
        name, _, call = REALS[entry]
        with pytest.raises(TypeError, match=name):
            call(value)

    @pytest.mark.parametrize("entry", REALS)
    @_SETTINGS
    @given(value=_NOT_FINITE_OR_NEGATIVE)
    def test_bad_value_is_value_error(self, entry, value):
        name, _, call = REALS[entry]
        with pytest.raises(ValueError, match=name):
            call(value)

    @pytest.mark.parametrize(
        "entry", [k for k, (_, positive, _) in REALS.items() if positive]
    )
    @pytest.mark.parametrize("value", [0.0, -0.0, 0, np.float32(0)])
    def test_zero_is_value_error_where_positive(self, entry, value):
        name, _, call = REALS[entry]
        with pytest.raises(ValueError, match=name):
            call(value)

    @pytest.mark.parametrize("entry", [
        "Straggler-probability", "CommDegradation-probability",
    ])
    @_SETTINGS
    @given(value=st.floats(min_value=1.0, exclude_min=True,
                           allow_infinity=False))
    def test_probability_above_one_is_value_error(self, entry, value):
        name, _, call = REALS[entry]
        with pytest.raises(ValueError, match=name):
            call(value)

    @pytest.mark.parametrize("name", [
        "flops_efficiency", "memory_bandwidth_efficiency",
        "bandwidth_efficiency",
    ])
    @pytest.mark.parametrize("value", [1.0 + 2**-52, 1.5, 100])
    def test_efficiency_above_one_is_value_error(self, name, value):
        with pytest.raises(ValueError, match=name):
            HardwareConfig(**{name: value})

    def test_a_cap_no_partition_fits_is_runtime_error(self):
        with pytest.raises(RuntimeError, match="memory cap"):
            plan_partition(_PROFILE, 3, 8, memory_cap=1.0)


class TestCosts:
    @pytest.mark.parametrize("entry", COSTS)
    @_SETTINGS
    @given(position=st.integers(0, 5), bad=_NOT_FINITE_OR_NEGATIVE)
    def test_bad_entry_is_value_error(self, entry, position, bad):
        name, call = COSTS[entry]
        with pytest.raises(ValueError, match=name):
            call(position, bad)


class TestKnobs:
    @pytest.mark.parametrize("entry", KNOBS)
    @_SETTINGS
    @given(value=st.one_of(
        st.integers(), st.floats(), st.none(), st.just(b"paper"),
    ))
    @_examples([0, 1, None])
    def test_wrong_type_is_type_error(self, entry, value):
        name, _, call = KNOBS[entry]
        with pytest.raises(TypeError, match=name):
            call(value)

    @pytest.mark.parametrize(
        "entry", [k for k, (_, options, _) in KNOBS.items() if options]
    )
    @_SETTINGS
    @given(value=st.text(max_size=8))
    @_examples(["", "Paper", "token", "median"])
    def test_unknown_choice_is_value_error(self, entry, value):
        name, options, call = KNOBS[entry]
        if value in options:
            return
        with pytest.raises(ValueError, match=name):
            call(value)

    @pytest.mark.parametrize(
        "entry", [k for k, (_, options, _) in KNOBS.items() if not options]
    )
    @pytest.mark.parametrize("value", ["False", "True", ""])
    def test_string_flag_is_type_error(self, entry, value):
        name, _, call = KNOBS[entry]
        with pytest.raises(TypeError, match=name):
            call(value)


class TestDomain:
    """Well-typed edge cases: each has one documented result or error."""

    @pytest.mark.parametrize("search", [plan_partition, exhaustive_partition])
    def test_depth_above_block_count_is_value_error(self, search):
        with pytest.raises(ValueError, match="7 stages"):
            search(_PROFILE, 7, 8)
        with pytest.raises(ValueError, match="2 stages"):
            search(_SINGLE, 2, 8)

    @pytest.mark.parametrize("search", [plan_partition, exhaustive_partition])
    @pytest.mark.parametrize("depth, m", [(4, 2), (5, 1), (1, 1), (6, 6)])
    def test_any_m_at_or_below_the_depth_plans(self, search, depth, m):
        result = search(_PROFILE, depth, m)
        assert result.partition.num_stages == depth
        assert result.partition.num_blocks == _PROFILE.num_blocks
        assert math.isfinite(result.iteration_time)

    @pytest.mark.parametrize("search", [plan_partition, exhaustive_partition])
    @pytest.mark.parametrize("m", [1, 4])
    def test_single_block_model_plans_at_depth_one(self, search, m):
        result = search(_SINGLE, 1, m)
        assert result.partition.sizes == (1,)
        assert result.iteration_time == pytest.approx(m * 3.0)

    @pytest.mark.parametrize("search", [plan_partition, exhaustive_partition])
    def test_zero_cost_model_plans_to_zero_time(self, search):
        zero = make_profile((0.0,) * 4, (-0.0,) * 4, 0.0)
        assert search(zero, 2, 4).iteration_time == 0.0

    def test_autotune_marks_depths_above_the_block_count(self):
        result = autotune_config(_SINGLE, 4)
        status = {c.layout.pipeline_stages: c.status
                  for c in result.candidates}
        assert status == {1: "ok", 2: "X", 4: "X"}
        assert result.best.layout.pipeline_stages == 1

    def test_autopipe_skips_depths_above_the_block_count(self):
        assert autopipe_config(_SINGLE, 4, 8).partition.num_stages == 1

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_slicer_and_executor_run_at_small_m(self, m):
        assert 0 <= solve_slice_count(_TIMES, m) <= min(m, 2)
        executed = run_pipeline(_PROFILE, _PARTITION, m)
        assert executed.iteration_time > 0
        assert PipelineSim(_TIMES, m).run().iteration_time > 0

    def test_slicer_rejects_a_zero_time_stage(self):
        with pytest.raises(ValueError, match="non-positive forward"):
            solve_slice_count(StageTimes((1.0, 0.0), (1.0, 1.0), 0.0), 4)

    def test_robust_objective_rejects_non_models(self):
        with pytest.raises(TypeError, match="models"):
            RobustObjective(("noise",))


class TestPlanCli:
    """``repro plan`` turns every bad flag value into exit 2 with a
    message naming the problem, and plans every well-typed edge case."""

    @pytest.mark.parametrize("argv, message", [
        (["--stages", "2.5", "--micro-batches", "4"], "--stages"),
        (["--stages", "True", "--micro-batches", "4"], "--stages"),
        (["--stages", "2", "--micro-batches", "abc"], "--micro-batches"),
        (["--stages", "2", "--micro-batches", "4.0"], "--micro-batches"),
        (["--stages", "-3", "--micro-batches", "4"], "--stages must be >= 1"),
        (["--stages", "2", "--micro-batches", "-1"],
         "--micro-batches must be >= 1"),
        (["--stages", "2", "--micro-batches", "4", "--comm-mode", "nope"],
         "--comm-mode"),
        (["--stages", "2", "--micro-batches", "4", "--model", "nope"],
         "nope"),
    ])
    def test_bad_flag_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["plan", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--stages", "1", "--micro-batches", "1"],
        ["--stages", "4", "--micro-batches", "2"],
        ["--stages", "3", "--micro-batches", "1", "--oracle"],
    ])
    def test_edge_cases_plan(self, capsys, argv):
        assert main(["plan", "--model", "bert-large", *argv]) == 0
        assert "partition" in capsys.readouterr().out
