"""Answer checks of the benchmark, run after the timed stream.

Every query's answer is checked against a reference that does not share
the code path under test:

* plan and oracle partitions are contiguous with exactly ``depth``
  non-empty stages covering every block, and their iteration time equals
  the scalar :class:`~repro.core.analytic_sim.PipelineSim` of the stage
  times bit for bit.  Against ``simulate_partition`` (which re-sums the
  stage times block by block) the match is bitwise at sub-layer
  granularity; at layer granularity the planner sums each layer's
  blocks first, so the two sums may differ in the last place and are
  compared to a relative 1e-12;
* an oracle value is never above the planner's for the same query, and a
  seeded sample re-solves the query's model at the deepest depth whose
  space holds at most :data:`BRUTE_SPACE` candidates with the literal
  brute force (``prune=False``), which must return the same partition
  and time;
* a robust value equals ``robust_objective_value`` recomputed from
  ``draw_factors``, and the robust oracle's value is never above the
  robust planner's;
* every tenth query of each execute operation is re-run: single runs on
  the event engine (equal iteration time and per-device peak memory),
  batched and Slicer-count rows as one run per candidate, and the
  all-ones row of a perturbed evaluation as the nominal run.

A checker returns ``None`` or a one-line reason.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import PipelineSim, make_slice_plan, plan_partition, run_pipeline, simulate_partition, stage_times
from repro.core.exhaustive import count_partitions, exhaustive_partition
from repro.core.partition import PartitionScheme, StageTimes
from repro.core.slicer import SlicePlan
from repro.hardware.cluster import Cluster
from repro.robustness import draw_factors, robust_objective_value
from repro.schedules.interleaved import build_interleaved
from repro.sim.engine import Engine

#: Oracle queries re-solved by the brute force per checked process, and
#: their space limit.
BRUTE_SAMPLE = 1
BRUTE_SPACE = 2000

#: Every ``SAMPLE_EVERY``-th query of each execute operation is re-run.
SAMPLE_EVERY = 10


def _partition_problem(q, ans: Dict[str, Any]) -> Optional[str]:
    sizes, depth = ans["sizes"], q.spec["depth"]
    if len(sizes) != depth or min(sizes) < 1 or sum(sizes) != q.profile.num_blocks:
        return (
            f"partition {sizes} is not {depth} non-empty stages covering "
            f"{q.profile.num_blocks} blocks"
        )
    return None


def _scalar_problem(q, ans: Dict[str, Any]) -> Optional[str]:
    """Iteration time against the scalar simulator and ``simulate_partition``."""
    spec, comm = q.spec, q.spec.get("comm", "paper")
    times = StageTimes(tuple(ans["fwd"]), tuple(ans["bwd"]), ans["comm"])
    scalar = PipelineSim(times, spec["m"], comm_mode=comm).run().iteration_time
    if scalar != ans["time"]:
        return f"iteration time {ans['time']!r} != PipelineSim {scalar!r}"
    partition = PartitionScheme.from_sizes(ans["sizes"])
    ref = simulate_partition(q.profile, partition, spec["m"], comm_mode=comm).iteration_time
    same = math.isclose(ref, ans["time"], rel_tol=1e-12) \
        if spec.get("granularity") == "layer" else ref == ans["time"]
    if not same:
        return f"iteration time {ans['time']!r} != simulate_partition {ref!r}"
    return None


def check_plan(q, ans, sampled: bool, brute: bool) -> Optional[str]:
    return _partition_problem(q, ans) or _scalar_problem(q, ans)


def check_oracle(q, ans, sampled: bool, brute: bool) -> Optional[str]:
    problem = _partition_problem(q, ans) or _scalar_problem(q, ans)
    if problem:
        return problem
    d, m = q.spec["depth"], q.spec["m"]
    planned = plan_partition(q.profile, d, m, cache=False, jobs=1).iteration_time
    if ans["time"] > planned:
        return f"oracle {ans['time']!r} above the planner's {planned!r}"
    if brute:
        n = q.profile.num_blocks
        small = max(
            (k for k in range(2, d + 1) if count_partitions(n, k) <= BRUTE_SPACE),
            default=None,
        )
        if small is not None:
            kwargs = dict(max_evaluations=None, cache=False, jobs=1)
            pruned = exhaustive_partition(q.profile, small, m, **kwargs)
            literal = exhaustive_partition(q.profile, small, m, prune=False, **kwargs)
            if (pruned.partition, pruned.iteration_time) != (
                literal.partition, literal.iteration_time
            ):
                return f"pruned oracle differs from brute force at depth {small}"
    return None


def _robust_problem(q, ans, times: StageTimes) -> Optional[str]:
    objective = q.inputs["objective"]
    factors = draw_factors(
        objective.models, q.spec["depth"], objective.draws, objective.seed
    )
    value = robust_objective_value(times, q.spec["m"], factors, objective.statistic)
    if value != ans["robust_value"]:
        return f"robust value {ans['robust_value']!r} != recomputed {value!r}"
    return None


def check_robust_oracle(q, ans, sampled: bool, brute: bool) -> Optional[str]:
    problem = _partition_problem(q, ans) or _scalar_problem(q, ans)
    if problem:
        return problem
    partition = PartitionScheme.from_sizes(ans["sizes"])
    problem = _robust_problem(q, ans, stage_times(partition, q.profile))
    if problem:
        return problem
    planned = plan_partition(
        q.profile, q.spec["depth"], q.spec["m"], robust=q.inputs["objective"],
        cache=False, jobs=1,
    ).robust_value
    if ans["robust_value"] > planned:
        return f"robust oracle {ans['robust_value']!r} above the planner's {planned!r}"
    return None


def check_robust_plan(q, ans, sampled: bool, brute: bool) -> Optional[str]:
    problem = _partition_problem(q, ans) or _scalar_problem(q, ans)
    if problem:
        return problem
    times = StageTimes(tuple(ans["fwd"]), tuple(ans["bwd"]), ans["comm"])
    return _robust_problem(q, ans, times)


def _row(result) -> List[Any]:
    return [result.iteration_time, list(result.peak_memory)]


def _rows_problem(rows: Sequence, reference: Sequence, what: str) -> Optional[str]:
    for k, (row, ref) in enumerate(zip(rows, reference)):
        if list(row) != ref:
            return f"row {k} {row!r} != {what} reference {ref!r}"
    if len(rows) != len(reference):
        return f"{what} returned {len(rows)} rows for {len(reference)} candidates"
    return None


def _times_problem(times: Sequence[float]) -> Optional[str]:
    if not all(math.isfinite(t) and t > 0 for t in times):
        return f"non-positive or non-finite iteration time in {list(times)!r}"
    return None


def check_single(q, ans, sampled: bool, brute: bool) -> Optional[str]:
    problem = _times_problem([ans["time"]])
    if problem or not sampled:
        return problem
    profile, d, m = q.profile, q.spec["depth"], q.spec["m"]
    partition, family = q.inputs["partition"], q.spec["family"]
    if family == "interleaved":
        cluster = Cluster(profile.hardware)
        ref = Engine(
            build_interleaved(profile, d, m, num_chunks=2), cluster,
            device_map=cluster.pipeline_devices(d),
        ).run()
    elif family == "sliced":
        plan = make_slice_plan(stage_times(partition, profile), m)
        ref = run_pipeline(
            profile, partition, m, schedule="sliced", slice_plan=plan, executor="event"
        )
    else:
        ref = run_pipeline(profile, partition, m, schedule=family, executor="event")
    return _rows_problem([[ans["time"], ans["peak"]]], [_row(ref)], "event engine")


def check_batch(q, ans, sampled: bool, brute: bool) -> Optional[str]:
    problem = _times_problem([r[0] for r in ans["rows"]])
    if problem or not sampled:
        return problem
    ref = [
        _row(run_pipeline(q.profile, p, q.spec["m"]))
        for p in q.inputs["partitions"]
    ]
    return _rows_problem(ans["rows"], ref, "batched")


def check_slices(q, ans, sampled: bool, brute: bool) -> Optional[str]:
    problem = _times_problem([r[0] for r in ans["rows"]])
    if problem or not sampled:
        return problem
    partition, m = q.inputs["partition"], q.spec["m"]
    ref = [
        _row(run_pipeline(q.profile, partition, m)) if count == 0 else _row(run_pipeline(
            q.profile, partition, m, schedule="sliced",
            slice_plan=SlicePlan(num_sliced=count, num_micro_batches=m),
        ))
        for count in q.inputs["counts"]
    ]
    return _rows_problem(ans["rows"], ref, "slice-count")


def check_perturbed(q, ans, sampled: bool, brute: bool) -> Optional[str]:
    problem = _times_problem(ans["times"])
    if problem or not sampled:
        return problem
    nominal = run_pipeline(q.profile, q.inputs["partition"], q.spec["m"]).iteration_time
    if ans["times"][0] != nominal:
        return f"all-ones draw {ans['times'][0]!r} != nominal run {nominal!r}"
    return None


CHECKS = {
    "plan": check_plan,
    "oracle": check_oracle,
    "robust_oracle": check_robust_oracle,
    "robust_plan": check_robust_plan,
    "single": check_single,
    "batch": check_batch,
    "slices": check_slices,
    "perturbed": check_perturbed,
}


def check_answers(queries, answers, seed: int) -> List[Tuple[int, str]]:
    """(query index, reason) for every answer that fails its check.

    ``answers[i]`` is ``None`` for a query that raised; the timed loop has
    already counted it as failed.
    """
    oracle = [q.index for q in queries if q.spec["op"] == "oracle"]
    brute = set(random.Random(f"brute:{seed}").sample(
        oracle, min(BRUTE_SAMPLE, len(oracle))
    ))
    seen: Counter = Counter()
    failures = []
    for q, ans in zip(queries, answers):
        if ans is None:
            continue
        op = q.spec["op"]
        sampled = seen[op] % SAMPLE_EVERY == 0
        seen[op] += 1
        try:
            problem = CHECKS[op](q, ans, sampled, q.index in brute)
        except Exception as exc:  # a crashing check is a failed answer
            problem = f"check raised {exc!r}"
        if problem:
            failures.append((q.index, problem))
    return failures

