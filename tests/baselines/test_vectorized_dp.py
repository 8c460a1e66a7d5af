"""Property suite: vectorized Piper/DAPPLE DPs == scalar reference plans.

Hypothesis jitters block profiles (times, params, stash, workspace),
communication cost, device memory and cluster shape, then asserts the
planners (which fill their DP tables with ``_fill_vector``) return plans
*identical* to the same planners run on the scalar reference loops
(``_fill_scalar`` patched in for ``_fill_vector``): same partition, same replica vector, bitwise-equal predicted time, same
notes — or the very same infeasibility error.  Squeezed memory factors
exercise the feasibility masks; the tie-prone jitter range exercises the
first-win argmin tie-breaks.
"""

import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import dapple, piper
from repro.baselines.dapple import plan_dapple
from repro.baselines.piper import plan_piper, tp_widths
from repro.experiments.common import make_profile
from repro.models.zoo import BERT_LARGE, GPT2_345M


def _jittered(model, mbs, m, seed, mem_factor, nodes, per_node):
    base = make_profile(model, mbs, m)
    rng = random.Random(seed)
    blocks = tuple(
        dataclasses.replace(
            bp,
            fwd_time=bp.fwd_time * (0.5 + rng.random()),
            bwd_time=bp.bwd_time * (0.5 + rng.random()),
            params=bp.params * (0.5 + rng.random()),
            stash_bytes=bp.stash_bytes * (0.5 + rng.random()),
            workspace_bytes=bp.workspace_bytes * (0.5 + rng.random()),
        )
        for bp in base.blocks
    )
    hardware = dataclasses.replace(
        base.hardware,
        num_nodes=nodes,
        gpus_per_node=per_node,
        gpu_memory=base.hardware.gpu_memory * mem_factor,
    )
    return dataclasses.replace(
        base,
        blocks=blocks,
        hardware=hardware,
        comm_time=base.comm_time * (0.5 + rng.random()),
    )


def _outcome(planner, profile, num_gpus, gbs):
    try:
        cfg = planner(profile, num_gpus, gbs)
    except RuntimeError as exc:
        return ("infeasible", str(exc))
    return (cfg.partition, cfg.replicas, cfg.predicted, cfg.notes)


def _scalar_outcome(module, planner, profile, num_gpus, gbs):
    """The planner's outcome with the scalar reference fill swapped in."""
    with mock.patch.object(module, "_fill_vector", module._fill_scalar):
        return _outcome(planner, profile, num_gpus, gbs)


plan_case = dict(
    model=st.sampled_from([GPT2_345M, BERT_LARGE]),
    mbs=st.sampled_from([4, 8, 32]),
    m=st.sampled_from([8, 16, 32]),
    seed=st.integers(0, 2**32 - 1),
    mem_factor=st.sampled_from([0.1, 0.3, 1.0]),
    nodes=st.sampled_from([1, 2, 4]),
    per_node=st.sampled_from([2, 4, 8]),
)


class TestPiperEquivalence:
    @given(data=st.data(), **plan_case)
    @settings(max_examples=30, deadline=None)
    def test_vector_plan_equals_scalar(
        self, data, model, mbs, m, seed, mem_factor, nodes, per_node
    ):
        profile = _jittered(model, mbs, m, seed, mem_factor, nodes, per_node)
        gbs = mbs * m
        num_gpus = data.draw(st.integers(1, nodes * per_node))
        scalar = _scalar_outcome(piper, plan_piper, profile, num_gpus, gbs)
        vector = _outcome(plan_piper, profile, num_gpus, gbs)
        assert scalar == vector

    def test_tp_widths_are_node_divisors(self):
        assert tp_widths(8) == (1, 2, 4, 8)
        assert tp_widths(6) == (1, 2, 3, 6)
        assert tp_widths(1) == (1,)


class TestDappleEquivalence:
    @given(data=st.data(), **plan_case)
    @settings(max_examples=30, deadline=None)
    def test_vector_plan_equals_scalar(
        self, data, model, mbs, m, seed, mem_factor, nodes, per_node
    ):
        profile = _jittered(model, mbs, m, seed, mem_factor, nodes, per_node)
        gbs = mbs * m
        num_gpus = data.draw(st.integers(2, nodes * per_node))
        scalar = _scalar_outcome(dapple, plan_dapple, profile, num_gpus, gbs)
        vector = _outcome(plan_dapple, profile, num_gpus, gbs)
        assert scalar == vector


@pytest.mark.parametrize("planner", [plan_piper, plan_dapple])
def test_impl_keyword_removed(planner):
    profile = _jittered(GPT2_345M, 4, 8, 0, 1.0, 1, 4)
    with pytest.raises(TypeError, match="impl"):
        planner(profile, 4, 32, impl="scalar")
