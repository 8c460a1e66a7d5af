"""Shape templates: a cached schedule shape serves every later query of it.

The builders defer their Op programs behind a shape key, and
``compile_graph`` / ``compile_slice_graph`` answer a repeated key by
gathering per-stage costs into the cached template's slot arrays.  The
contract is the same as for the rest of the compiled executor:

* a *warm* template fed a second model of the same shape reproduces the
  event engine on the materialised schedule, every field, for all five
  schedule families;
* a hit builds no ``ComputeOp``/``CommOp`` and never lowers or walks,
  and a miss builds no Op and never lowers either: it walks the shape
  key directly;
* reading ``programs`` keeps a schedule on its template; editing them
  after a compile recompiles the edited schedule;
* a cost a ``ComputeOp``/``Transfer`` would reject is rejected on a hit
  with the same ``ValueError``;
* a cached template keeps only what a run reads: no op table and no
  walk (replay records are walked again from the key and equal the Op
  route's), within a bound on the bytes it retains per node, and
  ``run_perturbed`` on a hit equals a freshly walked structure.
"""

import dataclasses
import gc
import random
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import balanced_partition
from repro.baselines.megatron import uniform_partition
from repro.core.slicer import SlicePlan
from repro.experiments.common import make_profile
from repro.experiments.deep_pipeline import DEEP_GPT
from repro.hardware.cluster import Cluster
from repro.hardware.comm import CommModel
from repro.hardware.device import DEFAULT_CLUSTER_HW
from repro.models.zoo import GPT2_345M
from repro.runtime.trainer import build_schedule, run_pipeline
from repro.schedules.base import CommOp, ComputeOp, OpTable, Transfer
from repro.schedules.interleaved import build_interleaved
from repro.sim import graph_exec
from repro.sim.engine import Engine, _Lowerer
from repro.sim.graph_exec import (
    _TEMPLATE_CACHE_SIZE,
    CompiledGraph,
    GraphStructure,
    _perturb_plan,
    _walk_programs,
    compile_graph,
    execute_fast,
    run_perturbed,
    template_cache_info,
)
from repro.sim.slice_eval import evaluate_slice_counts
from repro.sim.walks import _TableWalk, shape_walk

FAMILIES = ("1f1b", "gpipe", "sliced-agg", "sliced-noagg", "interleaved")


def _jittered(mbs, m, seed, hardware=DEFAULT_CLUSTER_HW):
    """GPT-2 345M at micro-batch size ``mbs`` with per-block cost jitter:
    same blocks and layers (so the same shapes), different costs."""
    base = make_profile(GPT2_345M, mbs, m, hardware)
    rng = random.Random(seed)
    blocks = tuple(
        dataclasses.replace(
            bp,
            fwd_time=bp.fwd_time * (0.5 + rng.random()),
            bwd_time=bp.bwd_time * (0.5 + rng.random()),
            stash_bytes=bp.stash_bytes * (0.5 + rng.random()),
            workspace_bytes=bp.workspace_bytes * (0.5 + rng.random()),
        )
        for bp in base.blocks
    )
    return dataclasses.replace(base, blocks=blocks)


def _schedule(family, profile, depth, m, num_sliced=1):
    if family == "interleaved":
        return build_interleaved(profile, depth, m, num_chunks=2)
    partition = uniform_partition(profile, depth)
    if family in ("1f1b", "gpipe"):
        return build_schedule(profile, partition, m, family)
    plan = SlicePlan(
        num_sliced, m, aggregate_last_warmup_comm=family == "sliced-agg"
    )
    return build_schedule(profile, partition, m, "sliced", slice_plan=plan)


def _by_device(events, num_devices):
    """Per-device event sequences.  A rendezvous event's label may name
    the mirror op (the engine labels both endpoints with the second
    arriver's op), so comm labels compare by their transfer tags."""
    out = [[] for _ in range(num_devices)]
    for dev, category, label, start, end, phase in events:
        if category == "comm":
            label = frozenset(part[1:] for part in label[5:-1].split(","))
        out[dev].append((category, label, start, end, phase))
    return out


def _assert_same_result(got, ref):
    assert got.schedule_name == ref.schedule_name
    assert got.iteration_time == ref.iteration_time
    assert got.peak_memory == ref.peak_memory
    assert got.oom_devices == ref.oom_devices
    assert got.num_devices == ref.num_devices
    for d in range(ref.num_devices):
        assert got.first_forward_start(d) == ref.first_forward_start(d)
    assert _by_device(got.raw_events, ref.num_devices) == _by_device(
        ref.raw_events, ref.num_devices
    )


@settings(max_examples=40, deadline=None)
@given(
    depth=st.sampled_from((2, 3, 4, 6)),
    mb_per_stage=st.integers(min_value=1, max_value=3),
    family=st.sampled_from(FAMILIES),
    mbs=st.sampled_from((2, 8)),
    seed=st.integers(min_value=0, max_value=10**6),
    data=st.data(),
)
def test_warm_template_equals_event_engine(
    depth, mb_per_stage, family, mbs, seed, data
):
    m = depth * mb_per_stage
    num_sliced = data.draw(st.integers(min_value=1, max_value=m))
    first = make_profile(GPT2_345M, 4, m)
    second = _jittered(mbs, m, seed)
    cluster = Cluster(first.hardware)
    devices = cluster.pipeline_devices(depth)
    compile_graph(
        _schedule(family, first, depth, m, num_sliced), cluster,
        device_map=devices,
    )
    cached = template_cache_info()[0]

    schedule = _schedule(family, second, depth, m, num_sliced)
    got = compile_graph(schedule, cluster, device_map=devices).run()
    assert template_cache_info()[0] == cached  # served by the warm template
    ref = Engine(schedule, cluster, device_map=devices).run()
    _assert_same_result(got, ref)


@settings(max_examples=25, deadline=None)
@given(
    depth=st.sampled_from((2, 3, 4, 6)),
    m=st.integers(min_value=2, max_value=12),
    aggregate=st.booleans(),
    seed=st.integers(min_value=0, max_value=10**6),
    data=st.data(),
)
def test_slice_sweep_template_equals_event_engine(
    depth, m, aggregate, seed, data
):
    """Templates a slice sweep records (``shape_walk``, cold) serve the
    sweep and built schedules of a second model like the event engine."""
    counts = data.draw(
        st.lists(st.integers(0, m), min_size=1, max_size=4, unique=True)
    )
    first = make_profile(GPT2_345M, 4, m)
    second = _jittered(8, m, seed)
    cluster = Cluster(first.hardware)
    devices = cluster.pipeline_devices(depth)
    graph_exec.clear_templates()
    evaluate_slice_counts(
        first, uniform_partition(first, depth), m, counts,
        aggregate=aggregate,
    )
    partition = uniform_partition(second, depth)
    swept = evaluate_slice_counts(
        second, partition, m, counts, aggregate=aggregate
    )

    def build(count):
        if count == 0:
            return build_schedule(second, partition, m)
        plan = SlicePlan(count, m, aggregate)
        return build_schedule(second, partition, m, "sliced", slice_plan=plan)

    for count, got in zip(counts, swept):
        ref = Engine(build(count), cluster, device_map=devices).run()
        built = compile_graph(build(count), cluster, device_map=devices)
        _assert_same_result(got, ref)
        _assert_same_result(built.run(), ref)


def _counting(monkeypatch):
    """Count Op constructions and every lower/walk entry point."""
    counts = Counter()
    for cls in (ComputeOp, CommOp, Transfer):
        original = cls.__post_init__

        def counted(self, _original=original, _name=cls.__name__):
            counts[_name] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    for module, name in (
        (graph_exec, "lower_programs"),
        (graph_exec, "_walk_programs"),
        (graph_exec, "GraphStructure"),
        (graph_exec, "shape_walk"),
    ):
        original = getattr(module, name)

        def counted_call(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted_call)
    return counts


def test_hit_builds_no_ops_and_never_lowers_or_walks(monkeypatch):
    depth, m = 4, 8
    first = make_profile(GPT2_345M, 4, m)
    second = _jittered(8, m, seed=3)
    cluster = Cluster(first.hardware)
    devices = cluster.pipeline_devices(depth)
    partition = uniform_partition(second, depth)
    for family in FAMILIES:
        compile_graph(
            _schedule(family, first, depth, m, 2), cluster, device_map=devices
        )
    # A slice sweep warms the sliced shapes run_pipeline uses, too.
    evaluate_slice_counts(first, partition, m, [0, 3])

    counts = _counting(monkeypatch)
    for family in FAMILIES:
        compile_graph(
            _schedule(family, second, depth, m, 2), cluster, device_map=devices
        ).run()
    evaluate_slice_counts(second, partition, m, [0, 3])
    run_pipeline(
        second, partition, m, schedule="sliced", slice_plan=SlicePlan(3, m)
    )
    assert counts == Counter()

    # A miss of every family walks its key once and builds no Op either.
    graph_exec.clear_templates()
    for family in FAMILIES:
        compile_graph(
            _schedule(family, second, depth, m, 2), cluster,
            device_map=devices,
        ).run()
    evaluate_slice_counts(second, partition, m, [1])
    assert counts == Counter(
        shape_walk=len(FAMILIES) + 1, GraphStructure=len(FAMILIES) + 1
    )


def test_reading_programs_keeps_the_template_but_editing_them_recompiles():
    depth, m = 4, 8
    profile = make_profile(GPT2_345M, 4, m)
    cluster = Cluster(profile.hardware)
    devices = cluster.pipeline_devices(depth)
    schedule = _schedule("1f1b", profile, depth, m)
    nominal = execute_fast(schedule, cluster, device_map=devices)

    assert schedule.programs  # emitted on demand
    assert schedule.template_shape() is schedule.shape
    again = execute_fast(schedule, cluster, device_map=devices)
    assert again.iteration_time == nominal.iteration_time

    schedule.programs[0].append(ComputeOp("F", (99, -1), 0.1))
    assert schedule.template_shape() is None
    got = execute_fast(schedule, cluster, device_map=devices)
    ref = Engine(schedule, cluster, device_map=devices).run()
    _assert_same_result(got, ref)
    assert got.iteration_time > nominal.iteration_time


def test_schedule_edited_before_compile_is_not_served_by_its_template():
    depth, m = 4, 8
    profile = make_profile(GPT2_345M, 4, m)
    cluster = Cluster(profile.hardware)
    devices = cluster.pipeline_devices(depth)
    nominal = execute_fast(
        _schedule("1f1b", profile, depth, m), cluster, device_map=devices
    )
    edited = _schedule("1f1b", profile, depth, m)
    edited.programs[0].append(ComputeOp("F", (99, -1), 1.0))
    got = execute_fast(edited, cluster, device_map=devices)
    ref = Engine(edited, cluster, device_map=devices).run()
    _assert_same_result(got, ref)
    assert got.iteration_time > nominal.iteration_time


def _with_block_fwd(profile, fwd_time):
    """``profile`` with block 0's forward time forced past the profile's
    own validation (which rejects negative times at construction)."""
    block = dataclasses.replace(profile.blocks[0])
    object.__setattr__(block, "fwd_time", fwd_time)
    return dataclasses.replace(profile, blocks=(block,) + profile.blocks[1:])


@pytest.mark.parametrize("family", FAMILIES)
def test_negative_block_cost_on_a_hit_raises_like_an_op(family):
    depth, m = 4, 8
    profile = make_profile(GPT2_345M, 4, m)
    cluster = Cluster(profile.hardware)
    devices = cluster.pipeline_devices(depth)
    compile_graph(
        _schedule(family, profile, depth, m, 2), cluster, device_map=devices
    )
    bad = _with_block_fwd(profile, -1.0)

    with pytest.raises(ValueError) as spec:
        _schedule(family, bad, depth, m, 2).programs
    with pytest.raises(ValueError) as hit:
        compile_graph(
            _schedule(family, bad, depth, m, 2), cluster, device_map=devices
        )
    assert str(hit.value) == str(spec.value) == "negative duration"


def test_negative_payload_on_a_hit_raises_like_a_transfer():
    depth, m = 4, 8
    profile = make_profile(GPT2_345M, 4, m)
    cluster = Cluster(profile.hardware)
    devices = cluster.pipeline_devices(depth)
    partition = uniform_partition(profile, depth)
    evaluate_slice_counts(profile, partition, m, [0, 2])
    # Forced past the profile's own validation, like _with_block_fwd.
    bad = dataclasses.replace(profile)
    object.__setattr__(bad, "boundary_bytes", -1.0)

    with pytest.raises(ValueError) as spec:
        _schedule("1f1b", bad, depth, m).programs
    with pytest.raises(ValueError) as hit:
        compile_graph(
            _schedule("1f1b", bad, depth, m), cluster, device_map=devices
        )
    with pytest.raises(ValueError) as sweep:
        evaluate_slice_counts(bad, partition, m, [0, 2])
    assert str(hit.value) == str(sweep.value) == str(spec.value)
    assert str(spec.value) == "negative transfer size"


def test_eviction_drops_every_key_of_a_template(monkeypatch):
    """One template per key, evicted least recently used first."""
    monkeypatch.setattr(graph_exec, "_TEMPLATE_CACHE_SIZE", 2)
    graph_exec.clear_templates()
    profile = make_profile(GPT2_345M, 4, 12)
    cluster = Cluster(profile.hardware)
    devices = cluster.pipeline_devices(2)

    def compile_m(m):
        schedule = _schedule("1f1b", profile, 2, m)
        compile_graph(schedule, cluster, device_map=devices)
        return schedule.shape.key

    k4, k6, k8 = (compile_m(m) for m in (4, 6, 8))
    assert template_cache_info()[0] == 2
    assert list(graph_exec._templates) == [k6, k8]
    compile_m(6)  # a hit makes k6 the most recently used
    compile_m(4)
    assert list(graph_exec._templates) == [k6, k4]
    assert _TEMPLATE_CACHE_SIZE == 256  # the production size is unchanged
    graph_exec.clear_templates()


# -- what a template keeps ---------------------------------------------------

#: Bytes a template may retain per node.  The shapes of ``_fixed_shapes``
#: measure about 120 B/node; templates that kept their op table and walk
#: (for replay records and ``run_perturbed``'s node classes) retained
#: about 280.
_BYTES_PER_NODE = 160


def _fixed_shapes():
    """Record the 18 templates of 1F1B at depth 16, m = 64 with every
    Slicer count below the depth, and of GPipe and interleaved at the
    same (depth, m)."""
    depth, m = 16, 64
    profile = make_profile(DEEP_GPT, 4, m)
    cluster = Cluster(profile.hardware)
    devices = cluster.pipeline_devices(depth)
    partition = balanced_partition(profile.block_times(), depth)
    evaluate_slice_counts(profile, partition, m, range(depth))
    for schedule in (
        build_schedule(profile, partition, m, "gpipe"),
        build_interleaved(profile, depth, m, num_chunks=2),
    ):
        compile_graph(schedule, cluster, device_map=devices)


def test_templates_retain_a_bounded_number_of_bytes_per_node():
    graph_exec.clear_templates()
    gc.collect()
    tracemalloc.start()
    try:
        _fixed_shapes()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        count, nodes = template_cache_info()
        graph_exec.clear_templates()
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert count == 18
    assert retained / nodes < _BYTES_PER_NODE, (retained, nodes)


def _reachable(roots):
    """Every object reachable from ``roots`` through references and
    array bases, short of types, modules and functions."""
    seen, stack, out = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (type, types.ModuleType, types.FunctionType)
        ):
            continue
        seen.add(id(obj))
        out.append(obj)
        stack.extend(gc.get_referents(obj))
        if isinstance(obj, np.ndarray) and obj.base is not None:
            stack.append(obj.base)
    return out


def test_cached_templates_keep_no_op_table_walk_or_wider_array():
    graph_exec.clear_templates()
    _fixed_shapes()
    templates = list(graph_exec._templates.values())
    reached = _reachable(templates)
    assert not [o for o in reached if isinstance(o, (OpTable, _TableWalk))]
    for template in templates:
        for name in ("s_node_lvl", "s_edge_lvl", "s_recv", "s_mem", "s_ws"):
            slots = getattr(template, name)
            # A view would keep a larger array of the walk alive.
            assert slots.base is None or slots.base.size == slots.size, name
    graph_exec.clear_templates()


def _op_walk(schedule, cluster, devices):
    """The Op route's walk: emit, lower and walk the programs (without
    the comm-symmetry check, which the walk's matching subsumes)."""
    lowerer = _Lowerer(cluster, devices, CommModel(cluster.hw))
    return _walk_programs([
        [lowerer.compile_op(dev, op) for op in program]
        for dev, program in enumerate(schedule.programs)
    ])


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    depth=st.sampled_from((2, 3, 4)),
    mb_per_stage=st.integers(1, 3),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_run_perturbed_on_a_hit_equals_a_freshly_walked_structure(
    family, depth, mb_per_stage, seed, data
):
    m = depth * mb_per_stage
    num_sliced = data.draw(st.integers(1, m), label="num_sliced")
    first = make_profile(GPT2_345M, 4, m)
    second = _jittered(8, m, seed)
    cluster = Cluster(first.hardware)
    devices = cluster.pipeline_devices(depth)
    compile_graph(
        _schedule(family, first, depth, m, num_sliced), cluster,
        device_map=devices,
    )
    schedule = _schedule(family, second, depth, m, num_sliced)
    hit = compile_graph(schedule, cluster, device_map=devices)
    # Two fresh walks: the Op route's, and the key's table walk on a
    # structure that keeps it.
    walk = _op_walk(schedule, cluster, devices)
    table = shape_walk(schedule.shape.key)[0]
    refs = (
        CompiledGraph.from_walk(
            GraphStructure(walk), walk, schedule.name, schedule.static_bytes,
            cluster.hw.gpu_memory,
        ),
        CompiledGraph(
            GraphStructure(table), hit.schedule_name, hit.static_bytes,
            hit.capacity, node_add_lvl=hit.node_add_lvl,
            edge_w_lvl=hit.edge_w_lvl, recv_durs=hit.recv_durs,
            mem_deltas=hit.mem_deltas, workspace=hit.workspace,
        ),
    )
    rng = np.random.default_rng(seed)
    compute = rng.uniform(0.5, 2.0, size=(5, depth))
    comm = rng.uniform(0.5, 2.0, size=5)
    compute[0], comm[0] = 1.0, 1.0
    got = run_perturbed(hit, compute, comm)
    assert got[0] == hit.run().iteration_time
    for ref in refs:
        want = run_perturbed(ref, compute, comm)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("family, depth, m", [
    (family, depth, m)
    for family in FAMILIES
    for depth, m in ((1, 3), (2, 2), (4, 8), (6, 12))
    if family != "interleaved" or depth >= 2  # two virtual stages a device
])
def test_perturbation_classes_come_from_the_template_without_a_walk(
    family, depth, m, monkeypatch
):
    """A template's node classes come from its slot descriptors and its
    deposit edges from its program-edge count: deriving them walks
    nothing and equals the table walk's ``perturb_columns`` (dtypes
    included), in level-major order."""
    profile = make_profile(GPT2_345M, 4, m)
    cluster = Cluster(profile.hardware)
    schedule = _schedule(family, profile, depth, m, num_sliced=max(1, m // 2))
    graph_exec.clear_templates()
    structure = compile_graph(
        schedule, cluster, device_map=cluster.pipeline_devices(depth)
    ).structure
    walk = shape_walk(schedule.shape.key)[0]

    def no_walk(key):
        raise AssertionError("the classes walked the shape key")

    monkeypatch.setattr(graph_exec, "shape_walk", no_walk)
    node_dev, node_is_comm, deposit = _perturb_plan(structure)
    want = walk.perturb_columns()
    for got, ref, order in (
        (node_dev, want[0], structure.node_order),
        (node_is_comm, want[1], structure.node_order),
        (deposit, want[2], structure.edge_perm),
    ):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref[order])
    assert _perturb_plan(structure)[0] is node_dev  # cached
    graph_exec.clear_templates()
