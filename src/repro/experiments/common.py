"""Shared plumbing for the evaluation experiments.

Every experiment compares some subset of four execution methods on the DES:

* ``megatron``  — uniform layer partition, plain 1F1B (the baseline);
* ``slicer``    — uniform partition, AutoPipe-sliced warmup;
* ``planner``   — AutoPipe-planned partition, plain 1F1B;
* ``autopipe``  — planned partition + sliced warmup (the full system).

:func:`run_method` executes one of them and returns a :class:`MethodResult`
with the iteration time, startup overhead and OOM flag; infeasible
configurations (uniform partition impossible, interleaved constraints)
surface as ``status`` markers, mirroring the paper's "OOM" and "X" cells.

The paper-table and figure sweeps are grids of independent cells;
:func:`run_cells` evaluates one grid in order, each cell with the global
RNGs seeded from its own identity.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.megatron import MegatronInfeasible, uniform_partition
from repro.config import HardwareConfig, ModelConfig, TrainConfig
from repro.core.partition import PartitionScheme, stage_times
from repro.core.planner import plan_partition
from repro.core.slicer import make_slice_plan
from repro.hardware.cluster import Cluster
from repro.hardware.device import DEFAULT_CLUSTER_HW
from repro.obs import telemetry as _obs
from repro.profiling import ModelProfile, profile_model
from repro.runtime.trainer import run_pipeline
from repro.schedules.interleaved import InterleavedInfeasible, build_interleaved
from repro.sim.graph_exec import execute_fast

METHODS = ("megatron", "slicer", "planner", "autopipe", "interleaved", "gpipe")

OK = "ok"
OOM = "OOM"
INFEASIBLE = "X"


@dataclass(frozen=True)
class MethodResult:
    """Outcome of executing one method on one configuration."""

    method: str
    status: str
    iteration_seconds: float = 0.0
    startup_seconds: float = 0.0
    peak_memory: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == OK


def _planned_partition(
    profile: ModelProfile, num_stages: int, num_micro_batches: int
) -> PartitionScheme:
    return plan_partition(profile, num_stages, num_micro_batches).partition


def run_method(
    method: str,
    profile: ModelProfile,
    num_stages: int,
    num_micro_batches: int,
    *,
    cluster: Optional[Cluster] = None,
) -> MethodResult:
    """Execute one method on the DES and classify the outcome.

    Every method runs on the compiled static-graph executor (bit-identical
    to the event engine, which it falls back to on graphs it rejects).
    """
    if cluster is None:
        cluster = Cluster(profile.hardware)
    try:
        if method == "interleaved":
            schedule = build_interleaved(
                profile, num_stages, num_micro_batches, num_chunks=2
            )
            execution = execute_fast(
                schedule, cluster,
                device_map=cluster.pipeline_devices(num_stages),
            )
        else:
            if method in ("megatron", "slicer", "gpipe"):
                partition = uniform_partition(profile, num_stages)
            else:
                partition = _planned_partition(
                    profile, num_stages, num_micro_batches
                )
            if method in ("slicer", "autopipe"):
                plan = make_slice_plan(
                    stage_times(partition, profile), num_micro_batches
                )
                execution = run_pipeline(
                    profile, partition, num_micro_batches,
                    schedule="sliced", slice_plan=plan, cluster=cluster,
                )
            elif method == "gpipe":
                execution = run_pipeline(
                    profile, partition, num_micro_batches,
                    schedule="gpipe", cluster=cluster,
                )
            else:
                execution = run_pipeline(
                    profile, partition, num_micro_batches, cluster=cluster,
                )
    except (MegatronInfeasible, InterleavedInfeasible):
        return MethodResult(method=method, status=INFEASIBLE)
    status = OOM if execution.oom else OK
    last = num_stages - 1
    return MethodResult(
        method=method,
        status=status,
        iteration_seconds=execution.iteration_time,
        startup_seconds=execution.first_forward_start(last),
        peak_memory=max(execution.peak_memory),
    )


def make_profile(
    model: ModelConfig,
    micro_batch_size: int,
    num_micro_batches: int,
    hardware: HardwareConfig = DEFAULT_CLUSTER_HW,
) -> ModelProfile:
    train = TrainConfig(
        micro_batch_size=micro_batch_size,
        global_batch_size=micro_batch_size * num_micro_batches,
    )
    return profile_model(model, hardware, train)


# -- sweeps -------------------------------------------------------------------


def cell_seed(fn: Callable, cell: Tuple) -> int:
    """Deterministic per-cell RNG seed from the cell's identity.

    Derived from the dotted function name and the argument repr only, so
    seeds match across processes and whatever ran before the cell.
    """
    payload = repr((
        getattr(fn, "__module__", "?"),
        getattr(fn, "__qualname__", repr(fn)),
        cell,
    ))
    return int.from_bytes(
        hashlib.sha256(payload.encode()).digest()[:8], "big"
    )


def run_cells(fn: Callable, cells: Sequence[Tuple]) -> List:
    """Evaluate ``fn(*cell)`` for every cell, in order.

    Every cell runs with the global ``random`` and legacy NumPy RNGs
    seeded from :func:`cell_seed`, so a cell that consumes global
    randomness produces bit-identical results whatever ran before it.
    Cells using their own ``np.random.default_rng(seed)`` are
    unaffected.  With a :mod:`repro.obs` registry current, the sweep
    records one ``sweep.run`` span and one ``sweep.cell`` span per cell.
    """
    tel = _obs.current()
    t_run = tel.clock() if tel is not None else 0
    cells = [tuple(c) for c in cells]
    results: List = []
    for cell in cells:
        seed = cell_seed(fn, cell)
        t0 = tel.clock() if tel is not None else 0
        random.seed(seed)
        np.random.seed(seed % 2**32)
        results.append(fn(*cell))
        if tel is not None:
            tel.record_since("sweep.cell", t0, cell=repr(cell)[:80])
    if tel is not None:
        tel.record_since("sweep.run", t_run, cells=len(cells))
    return results


# -- plain-text table rendering ---------------------------------------------


def format_float(v: float) -> str:
    """Format a float without collapsing small values to ``0.0``.

    Values at or above 0.1 in magnitude (and exact zero) keep the
    historical one-decimal format; smaller values switch to two
    significant figures so sub-0.1 entries (speedup deltas, seconds-scale
    timings) stay distinguishable from zero.
    """
    if v == 0 or abs(v) >= 0.1:
        return f"{v:.1f}"
    # two significant figures: one more decimal than the leading zero run.
    decimals = min(1 - math.floor(math.log10(abs(v))), 12)
    return f"{v:.{decimals}f}"


def format_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render an aligned plain-text table (the benches print these).

    Rows shorter than the header (a baseline that reported no admissible
    plans, a sweep cell that errored out) are padded with empty cells;
    surplus cells are kept and sized into extra unlabelled columns, so a
    ragged grid renders instead of raising.
    """

    def cell(v: object) -> str:
        if isinstance(v, float):
            return format_float(v)
        return str(v)

    grid = [list(map(cell, headers))] + [list(map(cell, r)) for r in rows]
    ncols = max(len(row) for row in grid)
    for row in grid:
        row.extend([""] * (ncols - len(row)))
    widths = [max(len(row[c]) for row in grid) for c in range(ncols)]
    lines = [title]
    for i, row in enumerate(grid):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """A generic experiment payload: named rows plus free-form metadata."""

    name: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        return format_table(self.name, self.headers, self.rows)
