"""Behavioural tests of the compiled static-graph executor.

Bit-identity against the event engine over randomized schedules lives in
``test_graph_exec_properties.py``; this module covers the machinery
around the evaluation itself: structure sharing, recompiling edited
schedules, the event-engine fallback, batched evaluation and lazy event construction.
"""

from collections import Counter

import pytest

from repro.baselines.megatron import uniform_partition
from repro.core.slicer import SlicePlan
from repro.experiments.common import make_profile
from repro.hardware.cluster import Cluster
from repro.models.zoo import BERT_LARGE, GPT2_345M
from repro.runtime.trainer import build_schedule, run_pipeline
from repro.schedules.base import CommOp, ComputeOp, Schedule, Transfer
from repro.sim.analytic import execute_analytic
from repro.sim.engine import DeadlockError, Engine
from repro.sim.graph_exec import (
    GraphCompileError,
    compile_graph,
    execute_batch,
    execute_fast,
    run_batch,
    run_perturbed,
)
from repro.sim.slice_eval import evaluate_slice_counts

DEPTH = 4
M = 8


def _schedule(model=GPT2_345M, method="1f1b"):
    profile = make_profile(model, 4, M)
    partition = uniform_partition(profile, DEPTH)
    return build_schedule(profile, partition, M, method), profile


@pytest.fixture()
def cluster():
    profile = make_profile(GPT2_345M, 4, M)
    return Cluster(profile.hardware)


def _devices(cluster):
    return cluster.pipeline_devices(DEPTH)


def test_matches_event_engine(cluster):
    sched, _ = _schedule()
    ref = Engine(sched, cluster, device_map=_devices(cluster)).run()
    fast = execute_fast(sched, cluster, device_map=_devices(cluster))
    assert fast.iteration_time == ref.iteration_time
    assert fast.peak_memory == ref.peak_memory
    assert fast.oom_devices == ref.oom_devices
    for d in range(DEPTH):
        assert fast.busy_time(d) == ref.busy_time(d)
        assert fast.first_forward_start(d) == ref.first_forward_start(d)
        assert fast.bubble_fraction(d) == ref.bubble_fraction(d)


def test_structure_shared_across_same_shape_schedules(cluster):
    """Two models, same depth/m/family -> one compiled DAG structure."""
    a, _ = _schedule(GPT2_345M)
    b, _ = _schedule(BERT_LARGE)
    ga = compile_graph(a, cluster, device_map=_devices(cluster))
    gb = compile_graph(b, cluster, device_map=_devices(cluster))
    assert ga.structure is gb.structure
    # ... while the cost vectors differ.
    assert ga.node_add_lvl.tolist() != gb.node_add_lvl.tolist()


def test_repeat_compile_shares_the_structure(cluster):
    """Nothing is cached on the schedule object: a repeat compile builds a
    new graph on the same structure, with the same result."""
    sched, _ = _schedule()
    devices = _devices(cluster)
    g1 = compile_graph(sched, cluster, device_map=devices)
    g2 = compile_graph(sched, cluster, device_map=devices)
    assert g1 is not g2
    assert g1.structure is g2.structure
    assert g2.run().iteration_time == g1.run().iteration_time


def test_edited_schedule_recompiles_as_edited(cluster):
    """A compile after editing the programs returns the edited schedule's
    event-engine result, not the graph of the schedule as first compiled."""
    sched, _ = _schedule()
    devices = _devices(cluster)
    nominal = compile_graph(sched, cluster, device_map=devices).run()
    sched.programs[0].append(ComputeOp("F", (99, -1), 0.1))
    edited = compile_graph(sched, cluster, device_map=devices).run()
    ref = Engine(sched, cluster, device_map=devices).run()
    assert edited.iteration_time == ref.iteration_time
    assert edited.peak_memory == ref.peak_memory
    assert Counter(e for e in edited.raw_events if e[1] in ("F", "B")) == (
        Counter(e for e in ref.raw_events if e[1] in ("F", "B"))
    )
    assert edited.iteration_time > nominal.iteration_time
    fast = execute_fast(sched, cluster, device_map=devices)
    assert fast.iteration_time == ref.iteration_time


def test_batched_rows_equal_scalar_runs(cluster):
    scheds = [_schedule(GPT2_345M)[0], _schedule(BERT_LARGE)[0]]
    graphs = [
        compile_graph(s, cluster, device_map=_devices(cluster))
        for s in scheds
    ]
    assert graphs[0].structure is graphs[1].structure
    batched = run_batch(graphs)
    for graph, row in zip(graphs, batched):
        scalar = graph.run()
        assert row.iteration_time == scalar.iteration_time
        assert row.peak_memory == scalar.peak_memory
        for d in range(DEPTH):
            assert row.busy_time(d) == scalar.busy_time(d)


def test_run_batch_rejects_mixed_structures(cluster):
    a = compile_graph(_schedule()[0], cluster, device_map=_devices(cluster))
    profile = make_profile(GPT2_345M, 4, M)
    other = build_schedule(profile, uniform_partition(profile, 2), M)
    b = compile_graph(other, cluster, device_map=cluster.pipeline_devices(2))
    with pytest.raises(ValueError):
        run_batch([a, b])


class TestRunPerturbed:
    def test_all_ones_is_nominal_bitwise(self, cluster):
        """Unit factors reproduce the nominal DES end-to-end time exactly."""
        import numpy as np

        for method in ("1f1b", "gpipe"):
            sched, _ = _schedule(method=method)
            graph = compile_graph(sched, cluster, device_map=_devices(cluster))
            nominal = graph.run().iteration_time
            times = run_perturbed(
                graph, np.ones((3, DEPTH)), np.ones(3)
            )
            assert times.shape == (3,)
            assert np.all(times == nominal)

    def test_uniform_scaling_is_homogeneous(self, cluster):
        """Scaling every duration by 2 scales the makespan by exactly 2."""
        import numpy as np

        sched, _ = _schedule()
        graph = compile_graph(sched, cluster, device_map=_devices(cluster))
        nominal = graph.run().iteration_time
        times = run_perturbed(
            graph, np.full((1, DEPTH), 2.0), np.full(1, 2.0)
        )
        assert times[0] == 2.0 * nominal

    def test_straggler_device_slows_iteration(self, cluster):
        import numpy as np

        sched, _ = _schedule()
        graph = compile_graph(sched, cluster, device_map=_devices(cluster))
        nominal = graph.run().iteration_time
        compute = np.ones((1, DEPTH))
        compute[0, DEPTH - 1] = 1.5
        times = run_perturbed(graph, compute, np.ones(1))
        assert times[0] > nominal

    def test_rejects_bad_shapes_and_values(self, cluster):
        import numpy as np

        sched, _ = _schedule()
        graph = compile_graph(sched, cluster, device_map=_devices(cluster))
        with pytest.raises(ValueError):
            run_perturbed(graph, np.ones((2, DEPTH + 1)), np.ones(2))
        with pytest.raises(ValueError):
            run_perturbed(graph, np.ones((2, DEPTH)), np.ones(3))
        with pytest.raises(ValueError):
            run_perturbed(graph, np.zeros((1, DEPTH)), np.ones(1))


def test_execute_batch_preserves_input_order(cluster):
    scheds = [
        _schedule(GPT2_345M)[0],
        _schedule(BERT_LARGE)[0],
        _schedule(GPT2_345M, "gpipe")[0],
    ]
    results = execute_batch(scheds, cluster, device_map=_devices(cluster))
    singles = [
        execute_fast(s, cluster, device_map=_devices(cluster))
        for s in scheds
    ]
    assert [r.iteration_time for r in results] == [
        s.iteration_time for s in singles
    ]


def test_deadlocked_schedule_falls_back_to_engine_diagnosis(cluster):
    t01 = Transfer("a", 0, 1, 1e6)
    t10 = Transfer("b", 1, 0, 1e6)
    crossed = Schedule("crossed", [
        [CommOp(0, 1, (t01,)), CommOp(0, 1, (t10,))],
        [CommOp(1, 0, (t10,)), CommOp(1, 0, (t01,))],
    ])
    with pytest.raises(GraphCompileError):
        compile_graph(crossed, cluster, device_map=[0, 1])
    crossed2 = Schedule("crossed", [
        [CommOp(0, 1, (t01,)), CommOp(0, 1, (t10,))],
        [CommOp(1, 0, (t10,)), CommOp(1, 0, (t01,))],
    ])
    with pytest.raises(DeadlockError):
        execute_fast(crossed2, cluster, device_map=[0, 1])


def test_eager_event_multiset_matches_engine(cluster):
    """GPipe is all-eager, so even the event labels line up exactly."""
    sched, _ = _schedule(method="gpipe")
    ref = Engine(sched, cluster, device_map=_devices(cluster)).run()
    sched2, _ = _schedule(method="gpipe")
    fast = execute_fast(sched2, cluster, device_map=_devices(cluster))
    assert Counter(fast.raw_events) == Counter(ref.raw_events)


def test_compute_events_match_engine_for_rendezvous_schedules(cluster):
    """1F1B uses rendezvous exchanges whose event label depends on which
    endpoint completes the match — so only compute events are compared,
    plus the comm spans as (device, start, end) triples."""
    sched, _ = _schedule()
    ref = Engine(sched, cluster, device_map=_devices(cluster)).run()
    sched2, _ = _schedule()
    fast = execute_fast(sched2, cluster, device_map=_devices(cluster))

    def compute_events(result):
        return Counter(
            e for e in result.raw_events if e[1] in ("F", "B")
        )

    def comm_spans(result):
        return Counter(
            (e[0], e[3], e[4]) for e in result.raw_events if e[1] == "comm"
        )

    assert compute_events(fast) == compute_events(ref)
    assert comm_spans(fast) == comm_spans(ref)


def test_sliced_aggregation_schedule_compiles(cluster):
    profile = make_profile(GPT2_345M, 4, M)
    partition = uniform_partition(profile, DEPTH)
    plan = SlicePlan(
        num_sliced=DEPTH, num_micro_batches=M,
        aggregate_last_warmup_comm=True,
    )
    sched = build_schedule(profile, partition, M, "sliced", slice_plan=plan)
    ref = Engine(sched, cluster, device_map=_devices(cluster)).run()
    fast = execute_fast(sched, cluster, device_map=_devices(cluster))
    assert fast.iteration_time == ref.iteration_time


def test_run_pipeline_executor_selection():
    profile = make_profile(GPT2_345M, 4, M)
    partition = uniform_partition(profile, DEPTH)
    graph = run_pipeline(profile, partition, M, executor="graph")
    event = run_pipeline(profile, partition, M, executor="event")
    assert graph.iteration_time == event.iteration_time
    for bad in ("nope", "analytic"):
        with pytest.raises(ValueError, match="unknown executor"):
            run_pipeline(profile, partition, M, executor=bad)


def test_events_property_materializes_from_lazy_factory(cluster):
    sched, _ = _schedule()
    fast = execute_fast(sched, cluster, device_map=_devices(cluster))
    events = fast.events
    assert events, "compiled result must still expose TimelineEvents"
    raw = fast.raw_events
    assert len(events) == len(raw)
    first = events[0]
    assert (
        first.device, first.category, first.label,
        first.start, first.end, first.phase,
    ) == raw[0]


@pytest.mark.parametrize("run", [
    lambda s, c, d: compile_graph(s, c, device_map=d),
    lambda s, c, d: execute_fast(s, c, device_map=d),
    lambda s, c, d: Engine(s, c, device_map=d),
    lambda s, c, d: execute_analytic(s, c, device_map=d),
], ids=["compile_graph", "execute_fast", "Engine", "execute_analytic"])
def test_device_map_with_a_repeated_device_is_rejected(cluster, run):
    sched, _ = _schedule()
    with pytest.raises(ValueError, match="device_map"):
        run(sched, cluster, [0, 1, 1, 2])
    run(sched, cluster, [0, 1, 2, 3])  # distinct devices still run


def test_slice_sweep_rejects_a_repeated_device(cluster):
    profile = make_profile(GPT2_345M, 4, M)
    partition = uniform_partition(profile, DEPTH)
    with pytest.raises(ValueError, match="device_map"):
        evaluate_slice_counts(
            profile, partition, M, [0, 2], device_map=[0, 0, 1, 2]
        )
