"""The planner's unit space reads per-unit times bitwise as ``sum`` does.

``_UnitSpace`` sums each granularity unit's block times.  At sublayer
granularity every unit is one block, and the space reads each time as
``0 + t``, the value ``sum`` gives a one-block unit: the same float,
except that a ``-0.0`` time becomes ``0.0``.  These tests hold both
granularities to the generic per-unit ``sum``, compared by
``float.hex`` (``==`` would conflate the two zeros).
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.planner import _UnitSpace, plan_partition
from repro.experiments.common import make_profile
from repro.models.zoo import GPT2_345M

_BASE = make_profile(GPT2_345M, 1, 4)

#: Signed zeros, tie-prone values and smooth floats.
_times = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5e-3]),
    st.floats(min_value=0.0, max_value=1.0),
)


def _with_times(fwd, bwd):
    blocks = tuple(
        dataclasses.replace(bp, fwd_time=f, bwd_time=b)
        for bp, f, b in zip(_BASE.blocks, fwd, bwd)
    )
    return dataclasses.replace(_BASE, blocks=blocks)


def _hexes(values):
    return [float(v).hex() for v in values]


def _generic(profile, units):
    """The per-unit generator sums of every granularity."""
    fwd = [sum(profile.blocks[i].fwd_time for i in u) for u in units]
    bwd = [sum(profile.blocks[i].bwd_time for i in u) for u in units]
    return fwd, bwd, [f + b for f, b in zip(fwd, bwd)]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), granularity=st.sampled_from(["sublayer", "layer"]))
def test_unit_lists_equal_the_generic_sums_bitwise(data, granularity):
    n = _BASE.num_blocks
    fwd = data.draw(st.lists(_times, min_size=n, max_size=n), label="fwd")
    bwd = data.draw(st.lists(_times, min_size=n, max_size=n), label="bwd")
    profile = _with_times(fwd, bwd)
    space = _UnitSpace(profile, granularity)
    want = _generic(profile, space.units)
    for got, ref in zip((space.fwd, space.bwd, space.weights), want):
        assert _hexes(got) == _hexes(ref)
        assert all(type(v) is float for v in got)


def test_negative_zero_block_times_read_as_positive_zero():
    n = _BASE.num_blocks
    profile = _with_times([-0.0] * n, [-0.0] * n)
    space = _UnitSpace(profile, "sublayer")
    assert space.units == [(i,) for i in range(n)]
    assert _hexes(space.fwd) == _hexes(space.bwd) == [(0.0).hex()] * n
    assert _hexes(space.weights) == [(0.0).hex()] * n


@pytest.mark.parametrize("granularity", ["sublayer", "layer"])
def test_signed_zero_profiles_plan(granularity):
    n = _BASE.num_blocks
    fwd = [-0.0 if i % 3 == 0 else bp.fwd_time
           for i, bp in enumerate(_BASE.blocks)]
    profile = _with_times(fwd, [bp.bwd_time for bp in _BASE.blocks])
    result = plan_partition(profile, 4, 8, granularity=granularity)
    assert sum(result.partition.sizes) == n
