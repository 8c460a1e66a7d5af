"""Scalar PipelineSim vs the straightforward dict-based reference.

The production simulator caches the DAG topology per (n, m) shape in
round order (warmup FPs, then ``m`` rounds visiting the stages from
last to first), relaxes every op through one function compiled per
(depth, comm mode) for every ``m`` (a warmup loop, the full rounds in
which every stage is steady, and a ramp-down loop), and backtracks
tight predecessors along the critical path only.  This file keeps the
original dict-based evaluation of the same recurrences, in Kahn order,
as an executable specification and checks the two agree **bit for
bit** — start/end times (compared by ``float.hex``, since ``==``
conflates ±0.0), iteration time, startup, critical path (including the
Fig. 4 tie-breaks) and master stage.  Discrete duration values are drawn so
exact ties are common, which is precisely where the tie-break rules
matter; ``0.0`` among them makes zero ``bwd[0]`` (the sink's end equal
to its start) and all-zero stages common too.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import analytic_sim
from repro.core.analytic_sim import STEADY, PipelineSim
from repro.core.partition import StageTimes


def reference_run(times, m, comm_mode):
    """The original dict-based evaluation (kept verbatim as the spec)."""
    sim = PipelineSim(times, m, comm_mode=comm_mode)
    n, comm = sim.n, times.comm
    phase, intra_pred = {}, {}
    for x in range(n):
        prev = None
        for op, ph in sim.stage_order(x):
            phase[op] = ph
            intra_pred[op] = prev
            prev = op

    preds, succs, indeg = {}, {op: [] for op in phase}, {}
    for op in phase:
        p = list(sim._dependencies(op))
        ip = intra_pred[op]
        if ip is not None:
            p.append(ip)
        preds[op] = p
        indeg[op] = len(p)
        for q in p:
            succs[q].append(op)

    start, end, tight_pred = {}, {}, {}
    ready = deque(op for op, d in indeg.items() if d == 0)
    while ready:
        op = ready.popleft()
        cross = sim._dependencies(op)
        if comm_mode == "paper":
            base = 0.0
            for q in preds[op]:
                base = max(base, end[q])
            s = base + comm if sim._comm_applies(op) else base
            tol = 1e-12 + 1e-9 * max(base, 1.0)
            tight = [q for q in preds[op] if end[q] >= base - tol]
        else:
            s = 0.0
            tight = []
            for q in preds[op]:
                arrival = end[q] + (comm if q in cross else 0.0)
                if arrival > s:
                    s = arrival
            for q in preds[op]:
                arrival = end[q] + (comm if q in cross else 0.0)
                if arrival >= s - (1e-12 + 1e-9 * max(s, 1.0)):
                    tight.append(q)
        tight_pred[op] = (
            max(tight, key=lambda q: (q[1], end[q])) if tight else None
        )
        start[op] = s
        end[op] = s + sim._duration(op)
        for nxt in succs[op]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)

    last_op = max(end, key=lambda op: (end[op], op[1]))
    path = []
    cur = last_op
    while cur is not None:
        path.append(cur)
        cur = tight_pred[cur]
    path.reverse()

    weight = [0.0] * n
    for op in path:
        if phase[op] == STEADY:
            weight[op[1]] += sim._duration(op)
    if max(weight) > 0.0:
        best = max(weight)
        master = max(x for x in range(n) if weight[x] >= best * (1 - 1e-9))
    else:
        total = times.total
        best = max(total)
        master = max(x for x in range(n) if total[x] >= best * (1 - 1e-9))

    return {
        "iteration_time": end[last_op],
        "startup": start[("F", n - 1, 0)],
        "master": master,
        "path": tuple(path),
        "start": start,
        "end": end,
        "phase": phase,
    }


def _hex(times):
    return {op: t.hex() for op, t in times.items()}


def assert_bitwise_equal(times, m, comm_mode):
    got = PipelineSim(times, m, comm_mode=comm_mode).run()
    want = reference_run(times, m, comm_mode)
    assert got.iteration_time.hex() == want["iteration_time"].hex()
    assert got.startup_overhead.hex() == want["startup"].hex()
    assert got.master_stage == want["master"]
    assert got.critical_path == want["path"]
    assert _hex(got.op_start) == _hex(want["start"])
    assert _hex(got.op_end) == _hex(want["end"])
    assert got.op_phase == want["phase"]


#: Discrete values make exact end-time ties (the tie-break cases) common;
#: ``0.0`` covers zero-duration stages and the zero-``bwd[0]`` sink case.
_TIE_VALUES = (0.0, 0.5, 1.0, 1.0, 2.0)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=12),
    st.sampled_from(["paper", "edges"]),
    st.data(),
)
def test_matches_reference_with_ties(n, m, comm_mode, data):
    fwd = tuple(data.draw(st.sampled_from(_TIE_VALUES)) for _ in range(n))
    bwd = tuple(data.draw(st.sampled_from(_TIE_VALUES)) for _ in range(n))
    comm = data.draw(st.sampled_from([0.0, 0.1]))
    assert_bitwise_equal(StageTimes(fwd, bwd, comm), m, comm_mode)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=10),
    st.sampled_from(["paper", "edges"]),
    st.data(),
)
def test_matches_reference_with_random_floats(n, m, comm_mode, data):
    fwd = tuple(
        data.draw(st.floats(min_value=0.05, max_value=3.0)) for _ in range(n)
    )
    bwd = tuple(
        data.draw(st.floats(min_value=0.05, max_value=3.0)) for _ in range(n)
    )
    comm = data.draw(st.floats(min_value=0.0, max_value=0.5))
    assert_bitwise_equal(StageTimes(fwd, bwd, comm), m, comm_mode)


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=64),
    st.sampled_from(["paper", "edges"]),
    st.data(),
)
def test_matches_reference_deep(n, m, comm_mode, data):
    """Planner-scale shapes: long critical paths over many stage hops."""
    values = st.one_of(
        st.sampled_from(_TIE_VALUES), st.floats(min_value=0.0, max_value=3.0)
    )
    fwd = tuple(data.draw(values) for _ in range(n))
    bwd = tuple(data.draw(values) for _ in range(n))
    comm = data.draw(st.sampled_from([0.0, 0.1, 0.37]))
    assert_bitwise_equal(StageTimes(fwd, bwd, comm), m, comm_mode)


def _micro_batches(n, data):
    """One ``m`` per regime of the relaxation's three loops, around the
    full-round count ``s_0 = max(0, m - n + 1)``: below ``n - 1`` (a
    short warmup, no full round, a ramp-down from round 0), ``n - 1``
    (``s_0 = 0``), ``n`` (one full round) and ``m >> n`` (many)."""
    ms = []
    if n >= 3:
        ms.append(data.draw(st.integers(min_value=1, max_value=n - 2)))
    if n >= 2:
        ms.append(n - 1)
    ms.append(n)
    ms.append(data.draw(st.integers(min_value=4 * n, max_value=8 * n)))
    return ms


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=16),
    st.sampled_from(["paper", "edges"]),
    st.sampled_from(["ties", "floats"]),
    st.data(),
)
def test_matches_reference_across_round_boundaries(n, comm_mode, kind, data):
    """Every regime of the relaxation, up to 16 stages and ``m = 8n``:
    each drawn cost vector runs at ``m < n - 1``, ``m = n - 1``,
    ``m = n`` and ``m >> n``, with tie-heavy and random float costs."""
    if kind == "ties":
        values = st.sampled_from(_TIE_VALUES)
        comm = data.draw(st.sampled_from([0.0, 0.1]))
    else:
        values = st.floats(min_value=0.0, max_value=3.0)
        comm = data.draw(st.floats(min_value=0.0, max_value=0.5))
    fwd = tuple(data.draw(values) for _ in range(n))
    bwd = tuple(data.draw(values) for _ in range(n))
    for m in _micro_batches(n, data):
        assert_bitwise_equal(StageTimes(fwd, bwd, comm), m, comm_mode)


def test_one_relaxation_per_depth_and_mode(monkeypatch):
    """One relaxation per (depth, comm mode), compiled once and reused
    for every ``m``, including ``m < n - 1`` (no full round)."""
    compiled = []
    source = analytic_sim._relax_source

    def counting_source(n, paper):
        compiled.append((n, paper))
        return source(n, paper)

    monkeypatch.setattr(analytic_sim, "_RELAXATIONS", {})
    monkeypatch.setattr(analytic_sim, "_relax_source", counting_source)
    times = StageTimes((1.0, 0.5, 2.0, 1.0), (2.0, 1.0, 1.0, 0.5), 0.1)
    for comm_mode in ("paper", "edges"):
        key = (4, comm_mode == "paper")
        PipelineSim(times, 1, comm_mode=comm_mode).run()
        relax = analytic_sim._RELAXATIONS[key]
        for m in range(2, 33):
            PipelineSim(times, m, comm_mode=comm_mode).run()
            assert analytic_sim._RELAXATIONS[key] is relax
    assert compiled == [(4, True), (4, False)]


@pytest.mark.parametrize("paper", [True, False])
def test_relaxation_source_grows_linearly_with_depth(paper):
    """The generated relaxation has O(n) statements, so its compile cost
    stays linear in the depth: at most ``16n + 16`` lines up to 32
    stages, and doubling the depth at most doubles its length (plus
    longer names).  Every source compiles."""
    size = {}
    for n in range(1, 33):
        source = analytic_sim._relax_source(n, paper)
        assert len(source.splitlines()) <= 16 * n + 16, n
        compile(source, f"<n={n}>", "exec")
        size[n] = len(source)
    for n in (4, 8, 16):
        assert size[2 * n] <= 2.25 * size[n], n


@pytest.mark.parametrize("comm_mode", ["paper", "edges"])
@pytest.mark.parametrize("bwd0", [0.0, 1e-300])
def test_sink_fallback_when_sink_adds_no_time(comm_mode, bwd0):
    """``B(0, m-1)`` ending at its own start (zero or sub-ulp ``bwd[0]``)
    takes the full latest-op rule, ties toward the higher stage."""
    assert_bitwise_equal(
        StageTimes((1.0, 1.0, 0.0), (bwd0, 2.0, 0.0), 0.0), 4, comm_mode
    )
    assert_bitwise_equal(
        StageTimes((0.0, 0.0), (bwd0, 0.0), 0.25), 3, comm_mode
    )


@pytest.mark.parametrize("comm_mode", ["paper", "edges"])
@pytest.mark.parametrize("n,m", [(1, 1), (1, 8), (4, 1), (4, 8), (6, 3), (5, 20)])
def test_matches_reference_balanced(n, m, comm_mode):
    """Perfectly balanced stages: every recurrence step is an exact tie."""
    assert_bitwise_equal(
        StageTimes((1.0,) * n, (2.0,) * n, 0.0), m, comm_mode
    )
    assert_bitwise_equal(
        StageTimes((1.0,) * n, (2.0,) * n, 0.25), m, comm_mode
    )


def test_shape_cache_reuse():
    """Two sims of one (n, m) shape share the cached topology."""
    a = PipelineSim(StageTimes((1.0, 2.0), (2.0, 1.0), 0.1), 6)
    b = PipelineSim(StageTimes((3.0, 1.0), (1.0, 3.0), 0.0), 6)
    assert a._shape is b._shape
    assert PipelineSim(StageTimes((1.0,), (1.0,), 0.0), 6)._shape is not a._shape


@pytest.mark.parametrize("comm_mode", ["paper", "edges"])
@pytest.mark.parametrize("fwd,bwd,m", [
    # m = 1: only the last stage is steady, and it costs nothing.
    ((1.0, 2.0, 3.0, 0.0), (2.0, 1.0, 0.5, 0.0), 1),
    # m = 2: stages 2 and 3 are steady and free; stages 0 and 1 tie on
    # total time, so the fallback's scan must pick the later one.
    ((1.0, 2.5, 0.0, 0.0), (2.5, 1.0, 0.0, 0.0), 2),
    # Every stage free: every total ties at 0.0 and the last stage wins.
    ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1),
    ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 5),
])
def test_master_falls_back_to_heaviest_stage(fwd, bwd, m, comm_mode):
    """No steady-phase time on the critical path: the master stage is
    the heaviest stage by total time, ties toward the last."""
    times = StageTimes(fwd, bwd, 0.25)
    sim = PipelineSim(times, m, comm_mode=comm_mode)
    result = sim.run()
    steady = [op for op in result.critical_path
              if result.op_phase[op] == STEADY]
    assert sum(map(sim._duration, steady)) == 0.0
    assert result.master_stage == max(
        x for x, t in enumerate(times.total) if t == max(times.total)
    )
    assert_bitwise_equal(times, m, comm_mode)
