"""The critical-path walk's fast path against the plain tolerance rule.

``PipelineSim._walk`` skips the tolerance arithmetic at an op whose two
arrivals differ by more than twice the largest tolerance on the path
(the top end's).  This file keeps the walk without that shortcut as the
specification and runs both on end lists built around the margins: the
arrivals are exact multiples of one ulp below a mid-binade top, so the
differences land exactly on the tolerance and on the fast-path margin,
and one ulp to either side, in both comm modes (edges mode's comm is
itself a multiple of the ulp, so ``end[c] + comm`` is exact too).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analytic_sim import PipelineSim
from repro.core.partition import StageTimes


def reference_walk(sim, end):
    """The tolerance-rule walk with no fast path (the specification)."""
    shape = sim._shape
    cross, intra, is_fp = shape.cross, shape.intra, shape.is_fp
    j = shape.sink_slot
    if not end[j] > sim._start_at(end, j):
        j = sim._latest_slot(end)
    cm = sim.times.comm if sim.comm_mode == "edges" else 0.0
    path = [j]
    while True:
        c = cross[j]
        q = intra[j]
        if not c:
            if not q:
                return path
            j = q
        elif not q:
            j = c
        else:
            a = end[c] + cm
            b = end[q]
            base = a if a > b else b
            lim = base - (1e-12 + 1e-9 * (base if base > 1.0 else 1.0))
            if is_fp[j]:
                j = q if b >= lim else c
            else:
                j = c if a >= lim else q
        path.append(j)


def _tol(x):
    return 1e-12 + 1e-9 * (x if x > 1.0 else 1.0)


def _margin_steps(top):
    """Ulp multiples at the tolerance and the fast-path margin of
    ``top``, with their neighbours."""
    ulp = math.ulp(top)
    k_tol = math.floor(_tol(top) / ulp)
    k_gap = math.floor(2.0 * _tol(top) / ulp)
    steps = [0, 1]
    for k in (k_tol, k_gap):
        steps += [k - 1, k, k + 1, k + 2]
    return ulp, steps + [3 * k_gap]


#: Mid-binade tops: subtracting small ulp multiples stays exact.  Tops
#: at most 1.0 share one tolerance, larger ones scale it.
_TOPS = (0.75, 1.5, 6.0, 48.0, 1536.0)


def _end_list(sim, top, ulp, offsets):
    """Ends ``top - offset`` (``- comm`` as well, so that every arrival
    stays at most ``top``), with the sink at ``top``."""
    shape = sim._shape
    cm = sim.times.comm if sim.comm_mode == "edges" else 0.0
    end = [0.0] + [top - cm - k * ulp for k in offsets]
    end[shape.sink_slot] = top
    return end


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    m=st.integers(min_value=1, max_value=10),
    comm_mode=st.sampled_from(["paper", "edges"]),
    top=st.sampled_from(_TOPS),
    data=st.data(),
)
def test_walk_equals_tolerance_rule_at_the_margins(n, m, comm_mode, top,
                                                   data):
    ulp, steps = _margin_steps(top)
    comm = data.draw(st.sampled_from(steps[:4])) * ulp
    sim = PipelineSim(StageTimes((1.0,) * n, (1.0,) * n, comm), m,
                      comm_mode=comm_mode)
    slots = len(sim._shape.cross) - 1
    offsets = data.draw(
        st.lists(st.sampled_from(steps), min_size=slots, max_size=slots)
    )
    end = _end_list(sim, top, ulp, offsets)
    assert sim._walk(end) == reference_walk(sim, end)


@pytest.mark.parametrize("comm_mode", ["paper", "edges"])
@pytest.mark.parametrize("top", _TOPS)
def test_both_arrivals_at_each_margin_step(comm_mode, top):
    """Every two-predecessor op sees every margin difference, either
    arrival later, on one deterministic sweep."""
    ulp, steps = _margin_steps(top)
    sim = PipelineSim(StageTimes((1.0,) * 4, (1.0,) * 4, 0.0), 9,
                      comm_mode=comm_mode)
    slots = len(sim._shape.cross) - 1
    for k in steps:
        for flip in (False, True):
            offsets = [
                (k if (j % 2) ^ flip else 0) for j in range(1, slots + 1)
            ]
            end = _end_list(sim, top, ulp, offsets)
            assert sim._walk(end) == reference_walk(sim, end)


@pytest.mark.parametrize("comm_mode", ["paper", "edges"])
def test_real_near_ties_keep_the_critical_path(comm_mode):
    """Balanced stages nudged by a few ulps: the ends of real
    relaxations sit within and just outside the tolerance."""
    for nudge in (0, 1, 2, 3, 1 << 20, 1 << 23, 1 << 24, 1 << 25):
        fwd = (1.0, 1.0 + nudge * math.ulp(1.0), 1.0, 1.0)
        bwd = (2.0, 2.0, 2.0 - nudge * math.ulp(1.0), 2.0)
        for comm in (0.0, 0.25):
            for m in (1, 3, 4, 9):
                sim = PipelineSim(StageTimes(fwd, bwd, comm), m,
                                  comm_mode=comm_mode)
                end = sim._relax()
                assert sim._walk(end) == reference_walk(sim, end)
