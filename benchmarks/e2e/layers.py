"""Per-layer tracing for the benchmark's traced pass.

The layers are the repository's modules.  :class:`Tracer` wraps each
layer's public entry points from outside the program: it replaces the
function on its defining module and on every loaded module that imported
the same object (the rest of ``repro`` and the benchmark's own query
module), and methods on their class.  Each wrapped call records a span
into a :class:`repro.obs.Telemetry` registry, so the program's own
``planner.*``, ``oracle.*`` and ``robust.*`` spans and counters
(recorded while the registry is the session's current one) land in the
same trace.  Aggregates are kept in memory:

* ``calls`` counts entries into a layer from outside it (a call from one
  function of the layer to another is not a new entry);
* ``self_ns`` is the time inside the layer's wrapped functions minus the
  time spent in wrapped functions they called;
* ``edges`` counts calls per (calling function, called function) for the
  few callees the cache and fallback metrics are derived from.

Spans of the wrapped calls go into the registry only when ``spans`` is
set (the process that writes the Perfetto trace); the aggregates never
need them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer name -> wrapped entry points as ``module:qualname``.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "core.planner": ("repro.core.planner:plan_partition",),
    "core.exhaustive": ("repro.core.exhaustive:exhaustive_partition",),
    "core.analytic_sim": (
        "repro.core.analytic_sim:PipelineSim.run",
        "repro.core.analytic_sim:PipelineSim.resume",
        "repro.core.analytic_sim:PrefixState.extend",
        "repro.core.analytic_sim:PipelineSimBatch.__init__",
        "repro.core.analytic_sim:SuffixSimBatch.__init__",
        "repro.core.analytic_sim:simulate_partition",
    ),
    "core.balance_dp": (
        "repro.core.balance_dp:BalanceTable.__init__",
        "repro.core.balance_dp:BalanceTable.sizes",
        "repro.core.balance_dp:min_max_partition",
        "repro.core.balance_dp:balanced_partition",
    ),
    "core.slicer": (
        "repro.core.slicer:solve_slice_count",
        "repro.core.slicer:make_slice_plan",
    ),
    "core.partition": (
        "repro.core.partition:stage_times",
        "repro.core.partition:stage_params",
        "repro.core.partition:PartitionScheme.from_sizes",
    ),
    "sim.analytic": (
        "repro.sim.analytic:frontier_times",
        "repro.sim.analytic:frontier_times_transposed",
        "repro.sim.analytic:execute_analytic",
    ),
    "sim.graph_exec": (
        "repro.sim.graph_exec:compile_graph",
        "repro.sim.graph_exec:execute_fast",
        "repro.sim.graph_exec:execute_batch",
        "repro.sim.graph_exec:run_batch",
        "repro.sim.graph_exec:run_perturbed",
        "repro.sim.graph_exec:CompiledGraph.run",
        "repro.sim.graph_exec:GraphStructure.__init__",
    ),
    "sim.engine": (
        "repro.sim.engine:lower_programs",
        "repro.sim.engine:Engine.run",
    ),
    "sim.slice_eval": (
        "repro.sim.slice_eval:evaluate_slice_counts",
        "repro.sim.slice_eval:compile_slice_graph",
    ),
    "schedules": (
        "repro.schedules.one_f_one_b:build_1f1b",
        "repro.schedules.one_f_one_b:build_unit_1f1b",
        "repro.schedules.gpipe:build_gpipe",
        "repro.schedules.sliced:build_sliced",
        "repro.schedules.interleaved:build_interleaved",
        "repro.schedules.base:Schedule.identity_signature",
        "repro.schedules.base:Schedule.validate_comm_symmetry",
    ),
    "runtime.trainer": (
        "repro.runtime.trainer:run_pipeline",
        "repro.runtime.trainer:build_schedule",
    ),
    "robustness.evaluate": (
        "repro.robustness.evaluate:robust_objective_value",
        "repro.robustness.evaluate:robust_objective_batch",
        "repro.robustness.evaluate:robust_iteration_times",
        "repro.robustness.evaluate:RobustObjective.factors",
    ),
    "robustness.perturbation": (
        "repro.robustness.perturbation:draw_factors",
        "repro.robustness.perturbation:StageFactors.apply",
    ),
    "profiling": ("repro.profiling.profiler:profile_model",),
}

#: Layers whose time is spent in the set-up rather than in queries.
SETUP_LAYERS = ("profiling",)

_GRAPH = "repro.sim.graph_exec"
_SLICES = "repro.sim.slice_eval"
_STRUCTURE = f"{_GRAPH}:GraphStructure.__init__"
_ENGINE_RUN = "repro.sim.engine:Engine.run"
_ROBUST_SCALAR = "repro.robustness.evaluate:robust_objective_value"
#: Callees whose calls are counted per caller (see :func:`phase_totals`).
_EDGE_CALLEES = {
    f"{_GRAPH}:compile_graph", f"{_SLICES}:compile_slice_graph",
    _STRUCTURE, _ENGINE_RUN, _ROBUST_SCALAR,
}

def _raw(owner: Any, name: str) -> Any:
    """The attribute as stored: a class's own ``__dict__`` entry keeps
    ``classmethod`` wrappers that ``getattr`` would bind away."""
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


def _resolve(target: str) -> Tuple[Any, str]:
    """``module:qualname`` -> (owning module or class, attribute name)."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Wraps every entry point in :data:`LAYERS` while installed."""

    def __init__(self, tel, spans: bool = False) -> None:
        self.tel = tel
        self.spans = spans
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.edges: Dict[Tuple[Optional[str], str], int] = {}
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, layer: str, key: str) -> Callable:
        stack, calls, self_ns, edges = self._stack, self.calls, self.self_ns, self.edges
        clock = time.perf_counter_ns
        record = self.tel.record_since if self.spans else None
        count_edge = key in _EDGE_CALLEES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, key, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_ns[layer] += dt - frame[2]
                if count_edge:
                    edge = (parent[1] if parent else None, key)
                    edges[edge] = edges.get(edge, 0) + 1
                if parent is None:
                    calls[layer] += 1
                else:
                    parent[2] += dt
                    if parent[0] != layer:
                        calls[layer] += 1
                if record is not None:
                    record(key, t0)

        return traced

    def exclude(self, ns: int) -> None:
        """Leave ``ns`` of work that is not the program's (a host-speed
        probe run inside a call) out of the innermost open call's self time."""
        if self._stack:
            self._stack[-1][2] += ns

    def install(self) -> "Tracer":
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, name = _resolve(target)
                raw = _raw(owner, name)
                if isinstance(raw, classmethod):
                    new: Any = classmethod(self._wrap(raw.__func__, layer, target))
                else:
                    new = self._wrap(raw, layer, target)
                self._patch(owner, name, new)
                if isinstance(owner, type):
                    continue
                # Modules that did ``from owner import name``: the rest of
                # ``repro`` and this benchmark's own query modules.
                for module in list(sys.modules.values()):
                    if module is not owner and \
                            getattr(module, "__dict__", {}).get(name) is raw:
                        self._patch(module, name, new)
        return self

    def _patch(self, owner: Any, name: str, new: Any) -> None:
        self._patches.append((owner, name, _raw(owner, name)))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._patches):
            setattr(owner, name, raw)
        self._patches.clear()

    def snapshot(self) -> Dict[str, Any]:
        """Copies of the aggregates, for differencing phases."""
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "edges": dict(self.edges),
            "counters": dict(self.tel.counters),
            "events": len(self.tel.events),
        }


def _diff(after: Dict[Any, float], before: Dict[Any, float]) -> Dict[Any, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _rate(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def phase_totals(
    tel, setup: Dict[str, Any], start: Dict[str, Any], end: Dict[str, Any],
    query_wall_s: float, setup_s: float,
) -> Dict[str, Any]:
    """Additive totals of one traced process, summable across processes.

    ``setup``, ``start`` and ``end`` are snapshots taken after set-up, at
    the start of the timed stream and at its end.  Query layers count the
    ``start``-to-``end`` difference, set-up layers the set-up snapshot.
    """
    edges = _diff(end["edges"], start["edges"])
    counters = _diff(end["counters"], start["counters"])
    events = tel.events[start["events"]:end["events"]]

    def span(name: str, attr: Optional[str] = None) -> float:
        return sum(
            (e[4] or {}).get(attr, 0) if attr else e[2] / 1e9
            for e in events if e[0] == name
        )

    def calls_to(key: str, parent: Optional[str] = None) -> int:
        return sum(
            v for (p, k), v in edges.items()
            if k == key and (parent is None or p == parent)
        )

    calls = _diff(end["calls"], start["calls"])
    self_ns = _diff(end["self_ns"], start["self_ns"])
    return {
        "query_wall_s": query_wall_s,
        "setup_s": setup_s,
        "calls": {
            layer: setup["calls"][layer] if layer in SETUP_LAYERS else calls[layer]
            for layer in LAYERS
        },
        "self_s": {
            layer: (setup["self_ns"] if layer in SETUP_LAYERS else self_ns)[layer] / 1e9
            for layer in LAYERS
        },
        "sums": {
            "planner_evaluations": counters.get("planner.evaluations", 0),
            "sim_cache_hits": counters.get("planner.sim_cache.hits", 0),
            "sim_cache_misses": counters.get("planner.sim_cache.misses", 0),
            "oracle_evaluations": counters.get("oracle.evaluations", 0),
            "oracle_space": counters.get("oracle.space", 0),
            "oracle_incumbent_updates": counters.get("oracle.incumbent_updates", 0),
            "chunk_flush_s": span("oracle.chunk_flush"),
            "kernel_sweep_s": span("oracle.kernel_sweep"),
            "columns": span("oracle.kernel_sweep", "cols"),
            "kept": span("oracle.kernel_sweep", "kept"),
            "robust_candidates": counters.get("robust.candidates", 0),
            "robust_draw_sims": counters.get("robust.draw_sims", 0),
            "robust_scalar": calls_to(_ROBUST_SCALAR),
            "compiles": calls_to(f"{_GRAPH}:compile_graph"),
            "structure_builds": calls_to(_STRUCTURE, f"{_GRAPH}:compile_graph"),
            "slice_compiles": calls_to(f"{_SLICES}:compile_slice_graph"),
            "family_builds": calls_to(_STRUCTURE, f"{_SLICES}:compile_slice_graph"),
            "fallbacks": calls_to(_ENGINE_RUN, f"{_GRAPH}:execute_fast")
            + calls_to(_ENGINE_RUN, f"{_GRAPH}:execute_batch"),
        },
    }


def add_totals(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Element-wise sum of two :func:`phase_totals` results."""
    return {
        k: add_totals(v, b[k]) if isinstance(v, dict) else v + b[k]
        for k, v in a.items()
    }


def layer_metrics(t: Dict[str, Any], draws: int) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` except the tracing
    overhead, from (pooled) totals.  Query layers report shares of the
    timed query wall, set-up layers shares of the set-up time.  ``draws``
    is the robust objective's draw count, which turns the robust
    planner's per-candidate scoring calls into draw simulations."""
    out: Dict[str, float] = {}
    wall, attributed = t["query_wall_s"], 0.0
    for layer in LAYERS:
        self_s = t["self_s"][layer]
        base = t["setup_s"] if layer in SETUP_LAYERS else wall
        if layer not in SETUP_LAYERS:
            attributed += self_s
        out[f"{layer}.calls"] = t["calls"][layer]
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = _rate(self_s, base)
    out["unattributed.self_s"] = max(0.0, wall - attributed)
    out["unattributed.share"] = _rate(out["unattributed.self_s"], wall)
    s = t["sums"]
    out.update({
        "core.planner.evaluations": s["planner_evaluations"],
        "core.planner.sim_cache.hit_rate": _rate(
            s["sim_cache_hits"], s["sim_cache_hits"] + s["sim_cache_misses"]
        ),
        "core.exhaustive.evaluations": s["oracle_evaluations"],
        "core.exhaustive.scored_fraction": _rate(s["oracle_evaluations"], s["oracle_space"]),
        "core.exhaustive.incumbent_updates": s["oracle_incumbent_updates"],
        "core.exhaustive.chunk_flush_s": s["chunk_flush_s"],
        "core.exhaustive.kernel_sweep_s": s["kernel_sweep_s"],
        "sim.analytic.columns": s["columns"],
        "sim.analytic.kept_fraction": _rate(s["kept"], s["columns"]),
        "robustness.evaluate.candidates": s["robust_candidates"] + s["robust_scalar"],
        "robustness.evaluate.draw_sims": s["robust_draw_sims"] + draws * s["robust_scalar"],
        "sim.graph_exec.structure_hit_rate":
            1.0 - _rate(s["structure_builds"], s["compiles"]) if s["compiles"] else 0.0,
        "sim.graph_exec.fallbacks": s["fallbacks"],
        "sim.slice_eval.family_hit_rate":
            1.0 - _rate(s["family_builds"], s["slice_compiles"]) if s["slice_compiles"] else 0.0,
    })
    return out
