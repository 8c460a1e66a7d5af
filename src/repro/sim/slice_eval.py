"""Batched slice-count evaluation: the autotuner's DES fast path.

The joint autotuner (:func:`repro.core.strategy.autotune_config`)
executes every admissible Slicer count of a layout on the DES.  Each
count compiles through the process-wide shape templates
(:func:`~repro.sim.graph_exec.shape_graph`) under the key
:func:`~repro.schedules.sliced.build_sliced` gives the same schedule, so
a template either path records serves the other.  On a hit only the
cost table is gathered.  On a miss :func:`~repro.sim.walks.shape_walk`
builds the key's 1F1B op table and walks it with array operations,
straight from the key: no Schedule, no Op and no lowering.

:func:`evaluate_slice_counts` then groups the candidates by structure
and relaxes each group in one :func:`~repro.sim.graph_exec.run_batch`
pass.  Different slice counts necessarily compile to *different*
structures (each sliced micro-batch adds a schedule unit), so the
fan-in only merges within a slice count; see ``docs/search.md``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.partition import PartitionScheme
from repro.core.slicer import SlicePlan
from repro.hardware.cluster import Cluster
from repro.hardware.comm import CommModel
from repro.profiling.modelconfig import ModelProfile
from repro.schedules.base import check_micro_batches
from repro.schedules.one_f_one_b import stage_costs
from repro.sim.engine import ExecutionResult, check_device_map
from repro.sim.graph_exec import CompiledGraph, run_batch, shape_graph


def compile_slice_graph(
    profile: ModelProfile,
    costs: Tuple[Sequence[object], Sequence[float]],
    num_micro_batches: int,
    num_sliced: int,
    cluster: Cluster,
    device_map: Sequence[int],
    *,
    aggregate: bool = True,
    comm: Optional[CommModel] = None,
) -> CompiledGraph:
    """Compile one slice-count candidate through its shape template.

    ``costs`` is the partition's
    :func:`~repro.schedules.one_f_one_b.stage_costs` and ``device_map``
    one that :func:`~repro.sim.engine.check_device_map` returned, so a
    sweep over counts computes neither per count.  The template key is
    the one :func:`~repro.schedules.sliced.build_sliced` (count > 0) or
    :func:`~repro.schedules.one_f_one_b.build_1f1b` (count 0) gives the
    same schedule.
    """
    plan = SlicePlan(num_sliced, num_micro_batches, aggregate)
    per_stage, static = costs
    key = ("1f1b", len(per_stage), plan.units(), aggregate and num_sliced > 0)
    return shape_graph(
        key, [[c] for c in per_stage], profile.boundary_bytes, cluster,
        device_map, "1f1b" if num_sliced == 0 else "autopipe-sliced",
        static, comm=comm,
    )


def evaluate_slice_counts(
    profile: ModelProfile,
    partition: PartitionScheme,
    num_micro_batches: int,
    slice_counts: Sequence[int],
    *,
    cluster: Optional[Cluster] = None,
    device_map: Optional[Sequence[int]] = None,
    aggregate: bool = True,
) -> List[ExecutionResult]:
    """Execute every Slicer count of one partition, batched.

    Bit-identical to calling
    :func:`repro.runtime.trainer.run_pipeline` once per count (schedule
    ``"1f1b"`` for 0, ``"sliced"`` with ``SlicePlan(count, m,
    aggregate)`` above), and raising the same ``ValueError`` for a count
    outside ``0..m`` or a non-integer ``num_micro_batches``.  Each
    candidate compiles through its shape template — on a miss its op
    table is walked with array operations — and candidates sharing a
    structure relax together in one
    :func:`~repro.sim.graph_exec.run_batch` pass.  Results come back in
    ``slice_counts`` order.
    """
    m = check_micro_batches(num_micro_batches)
    for num_sliced in slice_counts:
        SlicePlan(num_sliced, m, aggregate)
    if cluster is None:
        cluster = Cluster(profile.hardware)
    n = partition.num_stages
    if device_map is None:
        device_map = cluster.pipeline_devices(n)
    device_map = check_device_map(n, cluster, device_map)
    costs = stage_costs(profile, partition)
    comm = CommModel(cluster.hw)
    results: List[Optional[ExecutionResult]] = [None] * len(slice_counts)
    groups: Dict[int, List[Tuple[int, CompiledGraph]]] = {}
    for i, num_sliced in enumerate(slice_counts):
        graph = compile_slice_graph(
            profile, costs, m, num_sliced, cluster, device_map,
            aggregate=aggregate, comm=comm,
        )
        groups.setdefault(id(graph.structure), []).append((i, graph))
    for members in groups.values():
        evaluated = run_batch([g for _, g in members])
        for (i, _g), result in zip(members, evaluated):
            results[i] = result
    return results  # type: ignore[return-value]
