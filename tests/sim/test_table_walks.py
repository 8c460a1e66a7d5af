"""Table walks over a fixed corpus of shapes, and their compile errors.

A template miss builds its walk from the family's op table with array
operations (:func:`repro.sim.walks.shape_walk`).  The Op route —
``_walk_programs(lower_programs(schedule))`` — stays the spec, and this
suite holds the table walk to it deterministically, shape by shape:

* every family — 1F1B, GPipe, sliced with and without aggregation, and
  interleaved — at depth 1-8 (2-8 for interleaved), m 1-12 (multiples
  of the depth for interleaved) and every slice count, plus d16/m64 and
  d32/m32 once per family;
* per shape, a cold miss's ``GraphStructure`` (levels, ``node_order``,
  ``edge_perm``, records, ``first_f``, ``mem_offsets``) equals the one
  built from the Op route's walk, and the costs the template gathers
  equal that walk's own values bit for bit, on a device map across
  nodes.

A table whose communication does not match raises the Op route's
``GraphCompileError`` message: an unmatched rendezvous, a deposit sent
or received twice, and a receive with no send.
"""

import random

import numpy as np
import pytest

from repro import balanced_partition
from repro.core.slicer import SlicePlan
from repro.experiments.common import make_profile
from repro.experiments.deep_pipeline import DEEP_GPT
from repro.hardware.cluster import Cluster
from repro.hardware.comm import CommModel
from repro.hardware.device import rtx3090_cluster
from repro.models.zoo import GPT2_345M
from repro.runtime.trainer import build_schedule
from repro.schedules import ORDERS
from repro.schedules.base import (
    OP_RECV,
    OP_SEND,
    OpTable,
    Schedule,
    ScheduleShape,
    full_units,
)
from repro.schedules.one_f_one_b import _StageCosts
from repro.sim.engine import _Lowerer
from repro.sim.graph_exec import (
    CompiledGraph,
    GraphStructure,
    _walk_programs,
    clear_templates,
    compile_graph,
    template_cache_info,
)
from repro.sim.walks import GraphCompileError, shape_walk
from tests.sim.test_shape_templates import _jittered, _op_walk

#: 8 nodes x 4 GPUs: a device map across nodes mixes link classes.
HW = rtx3090_cluster(8, 4)
CLUSTER = Cluster(HW)


def _devices(depth):
    return random.Random(depth).sample(range(CLUSTER.num_devices), depth)


def _interleaved(profile, depth, m):
    """The interleaved schedule of ``profile`` with its blocks split into
    ``2 * depth`` balanced virtual stages, whatever its layer count."""
    stages = balanced_partition(profile.block_times(), 2 * depth).stages
    costs = [
        [_StageCosts(profile, stages[c * depth + x]) for c in range(2)]
        for x in range(depth)
    ]
    shape = ScheduleShape(
        ("interleaved", depth, m, 2), costs, profile.boundary_bytes
    )
    return Schedule.deferred("interleaved", shape, [0.0] * depth)


def _schedules(profile, depth, m, counts):
    """Every family's schedule of one (depth, m), sliced at ``counts``."""
    partition = balanced_partition(profile.block_times(), depth)
    yield build_schedule(profile, partition, m, "1f1b")
    yield build_schedule(profile, partition, m, "gpipe")
    for count in counts:
        for aggregate in (True, False):
            plan = SlicePlan(count, m, aggregate)
            yield build_schedule(
                profile, partition, m, "sliced", slice_plan=plan
            )
    if depth >= 2 and m % depth == 0:
        yield _interleaved(profile, depth, m)


def _corpus():
    for depth in range(1, 9):
        for m in range(1, 13):
            profile = _jittered(4, m, seed=depth * 100 + m, hardware=HW)
            yield from (
                (s, depth)
                for s in _schedules(profile, depth, m, range(1, m + 1))
            )
    for depth, m in ((16, 64), (32, 32)):
        profile = make_profile(DEEP_GPT, 4, m, hardware=HW)
        yield from (
            (s, depth) for s in _schedules(profile, depth, m, [depth - 1])
        )


def _assert_same_structure(a, b):
    """Levels, node order, edge order, replay records, first forwards and
    memory layout."""
    assert (a.num_nodes, a.num_edges) == (b.num_nodes, b.num_edges)
    assert [lv[:4] for lv in a.levels] == [lv[:4] for lv in b.levels]
    for k in (4, 5):
        assert np.array_equal(
            np.concatenate([lv[k] for lv in a.levels] or [[]]),
            np.concatenate([lv[k] for lv in b.levels] or [[]]),
        )
    assert np.array_equal(a.node_order, b.node_order)
    assert np.array_equal(a.edge_perm, b.edge_perm)
    assert np.array_equal(a.mem_offsets, b.mem_offsets)
    assert a.first_f == b.first_f
    assert a.records == b.records


def test_table_walks_equal_the_op_route_over_the_corpus():
    shapes = 0
    for schedule, depth in _corpus():
        devices = _devices(depth)
        ref = _op_walk(schedule, CLUSTER, devices)
        # A miss: the template's structure comes from the table walk.
        clear_templates()
        graph = compile_graph(schedule, CLUSTER, device_map=devices)
        structure = graph.structure
        cached = template_cache_info()
        _assert_same_structure(structure, GraphStructure(ref))
        # The template's records are walked again from the key once,
        # without adding a template.
        assert structure.records is structure.records
        assert template_cache_info() == cached
        expected = CompiledGraph.from_walk(
            structure, ref, graph.schedule_name, graph.static_bytes,
            graph.capacity,
        )
        for name in (
            "node_add_lvl", "edge_w_walk", "edge_w_lvl", "recv_durs",
            "mem_deltas", "workspace",
        ):
            got, want = getattr(graph, name), getattr(expected, name)
            assert got.shape == want.shape, name
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        shapes += 1
    assert shapes == 1469


# -- compile errors ---------------------------------------------------------

def _rows(table, keep=None, **columns):
    """``table`` with only the rows ``keep`` selects and some columns
    replaced."""
    names = ("dev", "kind", "chunk", "unit", "phase", "peer", "send", "recv")
    values = [columns.get(name, getattr(table, name)) for name in names]
    if keep is not None:
        values = [np.asarray(v)[keep] for v in values]
    return OpTable(
        table.num_devices, table.units, table.num_stages, values,
        table.tag_prefix,
    )


def _op_route_error(table):
    """The message the Op route raises for ``table``'s programs (the
    comm-symmetry check that runs first is skipped)."""
    profile = make_profile(GPT2_345M, 4, 2, hardware=HW)
    stages = balanced_partition(
        profile.block_times(), table.num_devices
    ).stages
    shape = ScheduleShape(
        ("broken",), [[_StageCosts(profile, s)] for s in stages],
        profile.boundary_bytes,
    )
    schedule = Schedule.deferred("broken", shape, [0.0] * len(stages))
    devices = list(range(table.num_devices))
    lowerer = _Lowerer(CLUSTER, devices, CommModel(HW))
    lowered = [
        [lowerer.compile_op(dev, op) for op in program]
        for dev, program in enumerate(schedule.programs)
    ]
    with pytest.raises(GraphCompileError) as raised:
        _walk_programs(lowered)
    return str(raised.value)


def _broken_tables():
    one_f_one_b = ORDERS["1f1b"](2, tuple(full_units(2)), False)
    gpipe = ORDERS["gpipe"](2, 2)
    rows = np.arange(len(gpipe.dev))
    sends = np.flatnonzero(gpipe.kind == OP_SEND)
    recvs = np.flatnonzero(gpipe.kind == OP_RECV)
    # Device 1's last exchange is gone: device 0's has no peer op.
    yield "unmatched rendezvous", _rows(
        one_f_one_b, np.arange(len(one_f_one_b.dev) - 1)
    )
    # The second activation reuses the first one's message.
    send = gpipe.send.copy()
    send[sends[1]] = send[sends[0]]
    yield "deposit sent twice", _rows(gpipe, send=send)
    yield "deposit sent twice, no receives", _rows(
        gpipe, gpipe.kind != OP_RECV, send=send
    )
    # One receive is listed twice.
    yield "deposit received twice", _rows(
        gpipe, np.insert(rows, recvs[0], recvs[0])
    )
    # A send is gone, so its receive waits for nothing.
    yield "receive without send", _rows(gpipe, rows != sends[0])


@pytest.mark.parametrize(
    "case, table", list(_broken_tables()),
    ids=lambda v: v.replace(" ", "-") if isinstance(v, str) else "table",
)
def test_a_broken_table_raises_the_op_route_error(monkeypatch, case, table):
    monkeypatch.setitem(ORDERS, "broken", lambda: table)
    expected = _op_route_error(table)
    with pytest.raises(GraphCompileError) as raised:
        shape_walk(("broken",))
    assert str(raised.value) == expected
    keyword = {
        "unmatched rendezvous": "no matching peer op",
        "deposit sent twice": "sent more than once",
        "deposit sent twice, no receives": "sent more than once",
        "deposit received twice": "received more than once",
        "receive without send": "has no matching send",
    }[case]
    assert keyword in expected
