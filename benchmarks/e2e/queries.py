"""Turn a query stream into calls against the public ``repro`` API.

:func:`prepare` is the benchmark's set-up: it profiles every model the
stream uses (``profile_model``), builds the Algorithm-1 partitions the
execute queries run on, and returns one :class:`Query` per stream entry.
A query's ``call`` is exactly what a user of the library would call to
get the answer, so the timed loop measures nothing else; ``answer``
reduces the returned object to plain data outside the timed region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro import (
    DEFAULT_CLUSTER_HW,
    ModelConfig,
    TrainConfig,
    balanced_partition,
    get_model,
    make_slice_plan,
    plan_partition,
    profile_model,
    rtx3090_cluster,
    run_pipeline,
    stage_times,
)
from repro.core.exhaustive import exhaustive_partition
from repro.core.partition import PartitionScheme
from repro.core.planner import SimCache
from repro.hardware.cluster import Cluster
from repro.profiling.modelconfig import ModelProfile
from repro.robustness import (
    CommDegradation,
    RobustObjective,
    StageCostNoise,
    Straggler,
)
from repro.runtime.trainer import build_schedule
from repro.schedules.interleaved import build_interleaved
from repro.sim.graph_exec import compile_graph, execute_batch, execute_fast, run_perturbed
from repro.sim.slice_eval import evaluate_slice_counts
from workloads import DRAWS

#: The execute workload's deepest pipeline needs 32 devices.
EXECUTE_HW = rtx3090_cluster(8, 4)

PERTURBATION_MODELS = {
    "noise": StageCostNoise(0.1),
    "straggler": Straggler(1.5, probability=0.5),
    "comm": CommDegradation(2.0, probability=0.5),
}


@dataclass
class Query:
    """One prepared query of a stream."""

    index: int
    spec: Dict[str, Any]
    profile: ModelProfile
    #: the timed call: returns the library's own result object.
    call: Callable[[], Any]
    #: plain-data answer of a result (untimed).
    answer: Callable[[Any], Dict[str, Any]]
    #: set-up inputs the checks need (partitions, objectives, factors).
    inputs: Dict[str, Any]


def ideal_time(q: Query) -> float:
    """The balanced, bubble-free iteration time ``m * sum(f + b) / depth``:
    every stage busy all the time with an equal share of the work."""
    return q.spec["m"] * q.profile.total_time() / q.spec["depth"]


def model_config(spec: Dict[str, Any]) -> ModelConfig:
    return get_model(spec["zoo"]) if "zoo" in spec else ModelConfig(**spec)


def objective_of(spec: Dict[str, Any]) -> RobustObjective:
    return RobustObjective(
        models=(PERTURBATION_MODELS[spec["perturbation"]],),
        draws=DRAWS,
        seed=spec["draw_seed"],
        statistic=spec["statistic"],
    )


def _plan_answer(result) -> Dict[str, Any]:
    times = result.sim.stage_times
    return {
        "sizes": list(result.partition.sizes),
        "time": result.iteration_time,
        "fwd": list(times.fwd),
        "bwd": list(times.bwd),
        "comm": times.comm,
        "robust_value": result.robust_value,
        "evaluations": result.evaluations,
        "objective": result.iteration_time
        if result.robust_value is None else result.robust_value,
    }


def _exec_answer(result) -> Dict[str, Any]:
    return {
        "time": result.iteration_time,
        "peak": list(result.peak_memory),
        "objective": result.iteration_time,
    }


def _rows_answer(results) -> Dict[str, Any]:
    rows = [[r.iteration_time, list(r.peak_memory)] for r in results]
    return {"rows": rows, "objective": min(r[0] for r in rows)}


def _perturbed_answer(times) -> Dict[str, Any]:
    values = times.tolist()
    return {"times": values, "objective": float(np.mean(times))}


def batch_partitions(
    profile: ModelProfile, depth: int, variants: int, seed: int
) -> List[PartitionScheme]:
    """Algorithm 1's partition plus ``variants - 1`` one-cut neighbours."""
    base = list(balanced_partition(profile.block_times(), depth).sizes)
    rng = random.Random(seed)
    out = [PartitionScheme.from_sizes(base)]
    while len(out) < variants:
        sizes = list(base)
        if depth > 1:
            for _ in range(8):
                cut = rng.randrange(depth - 1)
                delta = rng.choice((-1, 1))
                if sizes[cut] + delta >= 1 and sizes[cut + 1] - delta >= 1:
                    sizes[cut] += delta
                    sizes[cut + 1] -= delta
                    break
        out.append(PartitionScheme.from_sizes(sizes))
    return out


def perturbation_factors(
    depth: int, draws: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-draw compute and comm multipliers; draw 0 is all ones."""
    rng = np.random.default_rng(seed)
    compute = np.exp(0.1 * rng.standard_normal((draws, depth)))
    comm = np.where(rng.random(draws) < 0.5, 2.0, 1.0)
    compute[0] = 1.0
    comm[0] = 1.0
    return compute, comm


def _prepare_one(i: int, q: Dict[str, Any], profile: ModelProfile) -> Query:
    op, d, m = q["op"], q["depth"], q["m"]
    inputs: Dict[str, Any] = {}
    if op == "plan":
        def call():
            return plan_partition(
                profile, d, m, granularity=q["granularity"],
                comm_mode=q["comm"], sim_cache=SimCache(), cache=False, jobs=1,
            )
        return Query(i, q, profile, call, _plan_answer, inputs)
    if op == "oracle":
        def call():
            return exhaustive_partition(
                profile, d, m, max_evaluations=None, cache=False, jobs=1,
            )
        return Query(i, q, profile, call, _plan_answer, inputs)
    if op == "robust_oracle":
        objective = inputs["objective"] = objective_of(q)

        def call():
            return exhaustive_partition(
                profile, d, m, robust=objective, max_evaluations=None,
                cache=False, jobs=1,
            )
        return Query(i, q, profile, call, _plan_answer, inputs)
    if op == "robust_plan":
        objective = inputs["objective"] = objective_of(q)

        def call():
            return plan_partition(
                profile, d, m, robust=objective, sim_cache=SimCache(),
                cache=False, jobs=1,
            )
        return Query(i, q, profile, call, _plan_answer, inputs)

    partition = inputs["partition"] = balanced_partition(profile.block_times(), d)
    family = q["family"]
    if op == "single" and family == "interleaved":
        def call():
            cluster = Cluster(profile.hardware)
            schedule = build_interleaved(profile, d, m, num_chunks=2)
            return execute_fast(
                schedule, cluster, device_map=cluster.pipeline_devices(d)
            )
        return Query(i, q, profile, call, _exec_answer, inputs)
    if op == "single" and family == "sliced":
        def call():
            plan = make_slice_plan(stage_times(partition, profile), m)
            return run_pipeline(
                profile, partition, m, schedule="sliced", slice_plan=plan
            )
        return Query(i, q, profile, call, _exec_answer, inputs)
    if op == "single":
        def call():
            return run_pipeline(profile, partition, m, schedule=family)
        return Query(i, q, profile, call, _exec_answer, inputs)
    if op == "batch":
        parts = inputs["partitions"] = batch_partitions(
            profile, d, q["variants"], q["variant_seed"]
        )

        def call():
            cluster = Cluster(profile.hardware)
            schedules = [build_schedule(profile, p, m) for p in parts]
            return execute_batch(
                schedules, cluster, device_map=cluster.pipeline_devices(d)
            )
        return Query(i, q, profile, call, _rows_answer, inputs)
    if op == "slices":
        counts = inputs["counts"] = list(range(d))

        def call():
            return evaluate_slice_counts(profile, partition, m, counts)
        return Query(i, q, profile, call, _rows_answer, inputs)
    if op == "perturbed":
        compute, comm = perturbation_factors(d, q["draws"], q["factor_seed"])
        inputs["compute"], inputs["comm"] = compute, comm

        def call():
            cluster = Cluster(profile.hardware)
            graph = compile_graph(
                build_schedule(profile, partition, m), cluster,
                device_map=cluster.pipeline_devices(d),
            )
            return run_perturbed(graph, compute, comm)
        return Query(i, q, profile, call, _perturbed_answer, inputs)
    raise ValueError(f"unknown query op {op!r}")


def prepare(stream: Dict[str, Any], first: int = 0) -> List[Query]:
    """Profile every (model, micro-batch size) once and build the queries,
    numbering them from ``first``."""
    hw = EXECUTE_HW if stream["workload"] == "execute" else DEFAULT_CLUSTER_HW
    configs = [model_config(spec) for spec in stream["models"]]
    profiles: Dict[Tuple[int, int], ModelProfile] = {}
    out = []
    for i, q in enumerate(stream["queries"], first):
        key = (q["model"], q["mbs"])
        profile = profiles.get(key)
        if profile is None:
            train = TrainConfig(micro_batch_size=q["mbs"], global_batch_size=q["mbs"])
            profile = profiles[key] = profile_model(configs[q["model"]], hw, train)
        out.append(_prepare_one(i, q, profile))
    return out
