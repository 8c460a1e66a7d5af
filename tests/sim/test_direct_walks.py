"""Direct walks: a template miss walks the shape key, not the Ops.

On a miss, ``compile_graph`` records the shape template from the family's
direct walker (:mod:`repro.sim.walks`) instead of emitting, lowering and
walking Op programs.  The Op route stays the spec, and this suite holds
every walker to it for all five schedule families:

* the direct walk builds the Op route's walk
  (``_walk_programs(lower_programs(schedule))``) node for node, edge for
  edge, record for record, and hence the same ``GraphStructure``;
* the costs a template gathers equal the Op route's own walk values bit
  for bit, on the miss that records the template and on later hits, on a
  cross-node device map included;
* when a second key walks to a cached structure, its cost descriptors
  must match the template's, or the compile raises.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.cluster import Cluster
from repro.hardware.device import DEFAULT_CLUSTER_HW, rtx3090_cluster
from repro.schedules.interleaved import build_interleaved
from repro.sim import graph_exec
from repro.sim.engine import Engine, lower_programs
from repro.sim.graph_exec import (
    CompiledGraph,
    GraphStructure,
    _same_structure,
    _walk_programs,
    compile_graph,
    shape_graph,
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


def test_interleaved_depth_one_raises_like_its_transfers():
    profile = _jittered(4, 4, seed=0)
    cluster = Cluster(profile.hardware)
    with pytest.raises(ValueError) as spec:
        build_interleaved(profile, 1, 4).programs
    with pytest.raises(ValueError) as walked:
        compile_graph(build_interleaved(profile, 1, 4), cluster)
    assert str(walked.value) == str(spec.value) == "transfer to self"


def _permuted(walk):
    """``walk`` with the node slots of two F passes on different devices
    swapped: the same structure under other cost descriptors."""
    first, second = walk.first_f[0], walk.first_f[1]
    s_node = walk.s_node
    s_node[first], s_node[second] = s_node[second], s_node[first]
    return walk


@pytest.mark.parametrize("family", FAMILIES)
def test_second_key_on_a_cached_structure_must_name_its_descriptors(
    family, monkeypatch
):
    depth, m = 4, 8
    profile = _jittered(4, m, seed=5)
    cluster = Cluster(profile.hardware)
    devices = cluster.pipeline_devices(depth)
    schedule = _schedule(family, profile, depth, m, 2)
    shape = schedule.shape
    graph_exec.clear_templates()
    graph = compile_graph(schedule, cluster, device_map=devices)

    def alias_graph(permute):
        def walker(key):
            walk, descs = shape_walk(key[:-1])
            return (_permuted(walk) if permute else walk), descs

        monkeypatch.setattr(graph_exec, "shape_walk", walker)
        alias = shape.key + (permute,)
        return alias, shape_graph(
            alias, shape.stage_costs, shape.boundary_bytes, cluster,
            devices, schedule.name, schedule.static_bytes,
        )

    # The same walk under another key joins the template ...
    alias, joined = alias_graph(permute=False)
    assert graph_exec._templates[alias] is graph_exec._templates[shape.key]
    assert joined.run().iteration_time == graph.run().iteration_time
    # ... and one whose slots name other descriptors is refused.
    with pytest.raises(RuntimeError, match="other cost descriptors"):
        alias_graph(permute=True)
    graph_exec.clear_templates()
