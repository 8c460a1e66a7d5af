"""Property suite: compiled static-graph executor == event engine.

Hypothesis drives randomized pipeline depths, micro-batch counts, cost
jitter and all four schedule families (including the sliced schedule
with and without warmup-comm aggregation) and asserts the two executors
agree *bit-for-bit* on every reported metric: iteration time, per-device
peak memory, OOM flags, per-device busy time and first-forward start.

Bit-identity (not approximate equality) is the contract that lets the
fast path silently replace the event engine everywhere — the jitter maps
mirror transfers to identical byte counts (keyed by transfer tag) so the
rendezvous exchange times stay well-defined, while compute durations and
memory sizes are perturbed independently per op.
"""

import dataclasses
import random
import zlib

from hypothesis import given, settings, strategies as st

from repro.baselines.megatron import uniform_partition
from repro.core.partition import PartitionScheme, stage_times
from repro.core.slicer import SlicePlan, make_slice_plan
from repro.experiments.common import make_profile
from repro.hardware.cluster import Cluster
from repro.models.zoo import GPT2_345M
from repro.runtime.trainer import build_schedule
from repro.schedules.base import CommOp, ComputeOp, Schedule, Transfer
from repro.schedules.interleaved import build_interleaved
from repro.sim.engine import Engine
from repro.sim.graph_exec import compile_graph, execute_fast
from tests.sim.test_direct_walks import _same_structure

FAMILIES = ("1f1b", "gpipe", "sliced-agg", "sliced-noagg", "interleaved")


def _jitter(schedule: Schedule, seed: int) -> Schedule:
    """A same-shape schedule with perturbed costs.

    Compute durations and memory sizes jitter independently per op;
    transfer byte counts jitter by a factor derived from the tag so both
    mirror copies of a transfer stay equal (the engine computes exchange
    times from whichever endpoint arrives second).
    """
    rng = random.Random(seed)

    def tag_factor(tag: str) -> float:
        return 0.5 + (zlib.crc32(tag.encode()) % 1000) / 999.0

    programs = []
    for program in schedule.programs:
        ops = []
        for op in program:
            if isinstance(op, ComputeOp):
                ops.append(dataclasses.replace(
                    op,
                    duration=op.duration * (0.5 + rng.random()),
                    alloc_bytes=op.alloc_bytes * (0.5 + rng.random()),
                    free_bytes=op.free_bytes * (0.5 + rng.random()),
                    workspace_bytes=(
                        op.workspace_bytes * (0.5 + rng.random())
                    ),
                ))
            else:
                assert isinstance(op, CommOp)
                ops.append(dataclasses.replace(op, transfers=tuple(
                    dataclasses.replace(
                        t, bytes=t.bytes * tag_factor(t.tag)
                    )
                    for t in op.transfers
                )))
        programs.append(ops)
    return Schedule(
        name=schedule.name,
        programs=programs,
        static_bytes=[
            b * (0.5 + rng.random()) for b in schedule.static_bytes
        ],
    )


def _build(family: str, profile, depth: int, m: int, seed: int) -> Schedule:
    if family == "interleaved":
        return build_interleaved(profile, depth, m, num_chunks=2)
    rng = random.Random(seed)
    blocks = profile.num_blocks
    if family in ("1f1b", "gpipe") and depth < blocks and rng.random() < 0.5:
        cuts = sorted(rng.sample(range(1, blocks), depth - 1))
        partition = PartitionScheme.from_boundaries(blocks, cuts)
    else:
        partition = uniform_partition(profile, depth)
    if family == "1f1b":
        return build_schedule(profile, partition, m)
    if family == "gpipe":
        return build_schedule(profile, partition, m, "gpipe")
    if family == "sliced-agg":
        plan = make_slice_plan(stage_times(partition, profile), m)
    else:
        plan = SlicePlan(
            num_sliced=min(depth, m), num_micro_batches=m,
            aggregate_last_warmup_comm=False,
        )
    return build_schedule(profile, partition, m, "sliced", slice_plan=plan)


def _assert_identical(schedule: Schedule, cluster, devices) -> None:
    ref = Engine(schedule, cluster, device_map=devices).run()
    fast = execute_fast(schedule, cluster, device_map=devices)
    assert fast.iteration_time == ref.iteration_time
    assert fast.peak_memory == ref.peak_memory
    assert fast.oom_devices == ref.oom_devices
    assert fast.oom == ref.oom
    for d in range(len(devices)):
        assert fast.busy_time(d) == ref.busy_time(d)
        assert fast.first_forward_start(d) == ref.first_forward_start(d)


@settings(max_examples=40, deadline=None)
@given(
    depth=st.sampled_from((2, 3, 4, 6)),
    mb_per_stage=st.integers(min_value=1, max_value=3),
    family=st.sampled_from(FAMILIES),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_compiled_equals_event_engine(depth, mb_per_stage, family, seed):
    m = depth * mb_per_stage
    profile = make_profile(GPT2_345M, 4, m)
    cluster = Cluster(profile.hardware)
    devices = cluster.pipeline_devices(depth)
    schedule = _build(family, profile, depth, m, seed)
    _assert_identical(schedule, cluster, devices)


@settings(max_examples=40, deadline=None)
@given(
    depth=st.sampled_from((2, 3, 4, 6)),
    mb_per_stage=st.integers(min_value=1, max_value=3),
    family=st.sampled_from(FAMILIES),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_cost_jitter_preserves_identity_and_structure(
    depth, mb_per_stage, family, seed
):
    """Jittered costs still agree bit-for-bit AND compile to the same DAG
    (the hand-built jittered schedule walks onto a fresh structure, which
    must equal the template's)."""
    m = depth * mb_per_stage
    profile = make_profile(GPT2_345M, 4, m)
    cluster = Cluster(profile.hardware)
    devices = cluster.pipeline_devices(depth)
    base = _build(family, profile, depth, m, seed)
    jittered = _jitter(base, seed)
    _assert_identical(jittered, cluster, devices)
    g0 = compile_graph(base, cluster, device_map=devices)
    g1 = compile_graph(jittered, cluster, device_map=devices)
    assert _same_structure(g0.structure, g1.structure)
