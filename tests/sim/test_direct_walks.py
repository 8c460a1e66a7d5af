"""Direct walks: a template miss walks the shape key, not the Ops.

On a miss, ``compile_graph`` records the shape template by building the
key's op table with its family's order and walking the table
(:func:`repro.sim.walks.shape_walk`) instead of emitting, lowering and
walking Op programs.  The Op route stays the spec, and this suite holds
the table walk to it for all five schedule families:

* the direct walk builds the Op route's walk
  (``_walk_programs(lower_programs(schedule))``) node for node, edge for
  edge, record for record, and hence the same ``GraphStructure``;
* the costs a template gathers equal the Op route's own walk values bit
  for bit, on the miss that records the template and on later hits, on a
  cross-node device map included.

Both routes follow one order function per family, so this suite cannot
catch a mistake in the order itself; ``tests/schedules/test_orders.py``
pins each family's order literally.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hardware.cluster import Cluster
from repro.hardware.device import DEFAULT_CLUSTER_HW, rtx3090_cluster
from repro.sim import graph_exec
from repro.sim.engine import Engine, lower_programs
from repro.sim.graph_exec import (
    CompiledGraph,
    GraphStructure,
    _walk_programs,
    compile_graph,
)
from repro.sim.walks import shape_walk
from tests.sim.test_shape_templates import (
    FAMILIES,
    _assert_same_result,
    _jittered,
    _schedule,
)

#: 8 nodes x 4 GPUs: a device map across nodes mixes link classes.
CROSS_NODE_HW = rtx3090_cluster(8, 4)


def _op_walk(schedule, cluster, devices):
    """The Op route: emit, lower and walk the schedule's programs."""
    return _walk_programs(lower_programs(schedule, cluster, devices))


def _same_structure(a, b):
    """Whether two ``GraphStructure`` objects describe one DAG: levels,
    edge order, replay records and memory layout."""
    if (
        a.num_nodes != b.num_nodes or a.num_edges != b.num_edges
        or a.records != b.records or a.first_f != b.first_f
        or len(a.levels) != len(b.levels)
    ):
        return False
    arrays = [
        (a.node_order, b.node_order), (a.edge_perm, b.edge_perm),
        (a.mem_offsets, b.mem_offsets),
    ]
    for la, lb in zip(a.levels, b.levels):
        if la[:4] != lb[:4]:
            return False
        arrays += [(la[4], lb[4]), (la[5], lb[5])]
    return all(np.array_equal(x, y) for x, y in arrays)


def _same_bits(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(
        a.view(np.int64), b.view(np.int64)
    )


def _assert_same_walk(direct, ref):
    assert direct.num_nodes == ref.num_nodes
    assert direct.e_dst == ref.e_dst
    assert direct.e_src == ref.e_src
    assert direct.records == ref.records
    assert direct.first_f == ref.first_f
    assert direct.mem_counts == ref.mem_counts
    assert len(direct.s_node) == len(ref.node_add)
    assert len(direct.s_edge) == len(ref.e_w)
    assert len(direct.s_recv) == len(ref.recv_durs)
    assert len(direct.s_mem) == len(ref.mem_deltas)
    assert len(direct.s_ws) == len(ref.workspace)
    assert _same_structure(GraphStructure(direct), GraphStructure(ref))


def _assert_same_costs(graph, ref_walk):
    """``graph`` (gathered from a template) carries the Op route walk's
    own cost values, bit for bit."""
    structure = graph.structure
    assert _same_structure(structure, GraphStructure(ref_walk))
    ref = CompiledGraph.from_walk(
        structure, ref_walk, graph.schedule_name, graph.static_bytes,
        graph.capacity,
    )
    for name in (
        "node_add_lvl", "edge_w_walk", "edge_w_lvl", "recv_durs",
        "mem_deltas", "workspace",
    ):
        assert _same_bits(getattr(graph, name), getattr(ref, name)), name


def _shape_case(data, family):
    """(depth, m): depth 1-6 and m from 1, so m = 1 and m < depth occur,
    for the 1F1B family and GPipe; interleaved needs depth >= 2 and m a
    multiple of depth."""
    if family == "interleaved":
        depth = data.draw(st.sampled_from((2, 3, 4, 6)), label="depth")
        m = depth * data.draw(st.integers(1, 3), label="m/depth")
    else:
        depth = data.draw(st.sampled_from((1, 2, 3, 4, 6)), label="depth")
        m = data.draw(st.integers(1, 12), label="m")
    return depth, m


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    mbs=st.sampled_from((2, 8)),
    seed=st.integers(min_value=0, max_value=10**6),
    cross_node=st.booleans(),
    data=st.data(),
)
def test_direct_walk_equals_op_route(family, mbs, seed, cross_node, data):
    depth, m = _shape_case(data, family)
    num_sliced = data.draw(st.integers(1, m), label="num_sliced")
    hardware = CROSS_NODE_HW if cross_node else DEFAULT_CLUSTER_HW
    first = _jittered(4, m, seed, hardware)
    second = _jittered(mbs, m, seed + 1, hardware)
    cluster = Cluster(first.hardware)
    if cross_node:
        devices = data.draw(
            st.permutations(range(cluster.num_devices)), label="devices"
        )[:depth]
    else:
        devices = cluster.pipeline_devices(depth)

    schedule = _schedule(family, first, depth, m, num_sliced)
    direct, _descs = shape_walk(schedule.shape.key)
    ref_walk = _op_walk(schedule, cluster, devices)
    _assert_same_walk(direct, ref_walk)

    # The miss that records the template, then a hit with other costs.
    graph_exec.clear_templates()
    graph = compile_graph(schedule, cluster, device_map=devices)
    _assert_same_costs(graph, ref_walk)
    again = _schedule(family, second, depth, m, num_sliced)
    hit = compile_graph(again, cluster, device_map=devices)
    assert hit.structure is graph.structure
    _assert_same_costs(hit, _op_walk(again, cluster, devices))
    _assert_same_result(
        hit.run(), Engine(again, cluster, device_map=devices).run()
    )
