"""Deep-pipeline scaling: depths 32 and 64 on a 64-GPU cluster.

The paper's evaluation stops at 12 stages, but the planner directions in
the roadmap (OctoPipe-style co-optimization, larger search spaces) all
multiply full-schedule executions at depths where the per-op event loop
becomes the bottleneck.  This configuration executes a 128-layer GPT
variant at depth 32 and 64 with ``m = 2 × depth`` — 1F1B, AutoPipe-sliced
warmup and interleaved (v=2) schedules — through the compiled
static-graph executor, and records the wall-clock of both executors so
the speedup that makes these depths tractable is visible in the artifact.

Every reported metric comes from the compiled path; the event engine is
timed once per row purely for the comparison column (the two are
bit-identical, which `tests/sim/test_graph_exec_properties.py` enforces).
The row reports the compile time and a warm run of the compiled graph.
``speedup`` compares the cost of a one-off run on each path: one event
run over compile plus the first (cold) run of the compiled graph.
"""

from __future__ import annotations

import time

from repro.baselines.megatron import uniform_partition
from repro.config import ModelConfig
from repro.core.partition import stage_times
from repro.core.slicer import make_slice_plan
from repro.experiments.common import ExperimentResult, make_profile
from repro.hardware.cluster import Cluster
from repro.hardware.device import rtx3090_cluster
from repro.runtime.trainer import build_schedule
from repro.schedules.interleaved import build_interleaved
from repro.sim.engine import Engine
from repro.sim.graph_exec import compile_graph

#: A 128-layer GPT variant: divisible by both depths and by the
#: interleaved constraint ``layers % (depth · v) == 0`` at v=2.
DEEP_GPT = ModelConfig(
    name="gpt-deep-128", num_layers=128, hidden_size=1024, num_heads=16,
)

DEPTHS = (32, 64)
MICRO_BATCH_SIZE = 4
#: one 16-node × 4-GPU cluster serves both depths (contiguous mapping).
DEEP_HW = rtx3090_cluster(16, 4)


def _schedules(profile, depth: int, m: int):
    partition = uniform_partition(profile, depth)
    plan = make_slice_plan(stage_times(partition, profile), m)
    yield "1f1b", build_schedule(profile, partition, m)
    yield "sliced", build_schedule(
        profile, partition, m, "sliced", slice_plan=plan
    )
    yield "interleaved", build_interleaved(profile, depth, m, num_chunks=2)


def run() -> ExperimentResult:
    result = ExperimentResult(
        name="Deep pipelines: compiled executor at depth 32/64 (m = 2·depth)",
        headers=[
            "depth", "m", "schedule", "iteration (s)", "bubble last",
            "compile (ms)", "compiled (ms)", "event (ms)", "speedup",
        ],
    )
    cluster = Cluster(DEEP_HW)
    for depth in DEPTHS:
        m = 2 * depth
        profile = make_profile(DEEP_GPT, MICRO_BATCH_SIZE, m, hardware=DEEP_HW)
        devices = cluster.pipeline_devices(depth)
        for label, schedule in _schedules(profile, depth, m):
            t0 = time.perf_counter()
            graph = compile_graph(schedule, cluster, device_map=devices)
            compile_s = time.perf_counter() - t0
            graph.run()
            one_off_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            execution = graph.run()
            compiled_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            reference = Engine(schedule, cluster, device_map=devices).run()
            event_s = time.perf_counter() - t0
            assert reference.iteration_time == execution.iteration_time
            result.rows.append([
                depth, m, label,
                round(execution.iteration_time, 4),
                round(execution.bubble_fraction(depth - 1), 4),
                round(compile_s * 1e3, 3),
                round(compiled_s * 1e3, 3),
                round(event_s * 1e3, 3),
                round(event_s / one_off_s, 1),
            ])
    result.meta["model"] = DEEP_GPT.name
    result.meta["hardware"] = DEEP_HW.name
    return result


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
