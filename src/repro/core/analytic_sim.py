"""The paper's fast pipeline simulator (Section III-B-1).

Given per-stage forward/backward durations, the scalar ``Comm`` and the
number of micro-batches ``m``, the simulator derives the start time of every
FP/BP operation in a synchronous 1F1B pipeline, the iteration time, the
unique critical path and the **master stage**.

Per-stage operation order (stage ``x`` of ``n``, Megatron 1F1B):

* Warmup: ``w_x = min(m, n-1-x)`` forward passes for micro-batches
  ``0..w_x-1``.
* 1F1B (the paper's renumbered "blocks"): ``s_x = m - w_x`` alternating
  (FP, BP) pairs; block ``y`` pairs ``FP(w_x + y)`` with ``BP(y)`` —
  exactly ``max(0, m - n + x + 1)`` blocks when ``m >= n - 1``.
* Cooldown: the remaining ``w_x`` backward passes, micro-batches
  ``s_x..m-1``.

Start times follow the paper's recurrences: the start of an operation is
the max over its intra-stage predecessor and its cross-stage dependency,
**plus ``Comm``** whenever the paper's equations add it (FP with ``x != 0``,
BP with ``x != n-1``; Cooldown BPs likewise).  ``comm_mode="edges"``
instead charges ``Comm`` only on the cross-stage dependency edge — the
slightly more faithful model the DES uses — and exists so tests and the
Fig. 11 experiment can quantify the paper-mode bias.

Critical-path uniqueness (paper Fig. 4): when several predecessors are
tight, the walk prefers the one on the **higher stage index**, selecting
the longest path "closest to the last pipeline stage in the 1F1B phase".
The master stage is the stage where the critical path spends the most
steady-phase (1F1B) time, ties broken toward the last stage.

Performance notes (the planner calls :meth:`PipelineSim.run` thousands of
times per search sweep; on planner-style streams it is most of the
planning time):

* the dependency DAG's **topology** is a pure function of ``(n, m)`` — a
  module-level :data:`shape cache <_SHAPE_CACHE>` stores the operation
  list and the ops in Kahn order with each op's cross/intra predecessor
  remapped to its Kahn position (a missing one points at a sentinel slot
  holding ``0.0``), so repeated simulations of one shape skip graph
  construction entirely;
* :meth:`PipelineSim.run` gathers each op's ``(comm addend, duration)``
  pair from a 4n-entry per-stage table with one ``operator.itemgetter``
  call and runs a single ``zip`` loop that appends end times — no numpy,
  no per-op branches, and the same IEEE sequence as the reference
  recurrence (max of predecessor ends, ``+ comm`` iff a cross dependency
  exists, ``+ dur``), bitwise equal because ends are finite and
  ``>= +0.0`` (:class:`~repro.core.partition.StageTimes` rejects NaN and
  infinities);
* the latest op is the sink ``B(0, m-1)`` whenever its end exceeds its
  start, since every other op ends at or before that start; the
  tight-predecessor rule then runs only along the ~``2(n+m)``-op critical
  path, recomputing each start from its predecessors' ends and summing
  the master-stage weights in path order — nothing is built per op;
* :class:`SimResult` keeps scalars and the path only (small in memos,
  plan-cache pickles and pool transfers) and rebuilds
  ``op_start``/``op_end`` on first access by re-running the relaxation;
* the planner's nominal master-shift loop stays on this scalar path
  rather than the max-plus kernel of :mod:`repro.sim.analytic`: its
  shift waves average 1.55 uncached candidates over the end-to-end
  ``plan`` benchmark stream, too few for a batched sweep to amortise,
  and a frontier carries no critical path or master stage;
* partition searches evaluate families of candidates that share a
  *prefix* of the stage-time vector (the oracle's left-to-right cut
  descent).  The ops whose start times are a pure function of the
  prefix times — the **free lattice** of a cut ``k``: Warmup FPs plus
  the first steady FP of each prefix stage, i.e. every op whose
  dependency closure avoids stages ``>= k`` — can be checkpointed once
  per shared prefix (:class:`PrefixState`, built stage-by-stage via
  :meth:`PrefixState.extend`) and reused verbatim;
  :meth:`PipelineSim.resume` and :class:`SuffixSimBatch` recompute only
  the remaining ops.  Every recomputed op performs the identical IEEE
  operation sequence over operands that are bitwise equal to a cold
  run's, so resumed results are bit-for-bit identical to
  :meth:`PipelineSim.run` (tests/core/test_incremental_sim.py
  property-checks this, ties and critical paths included).

All of this is exact: start/end times, critical path, master stage and
tie-breaks are bit-for-bit identical to the straightforward dict-based
evaluation of the same recurrences (tests/core/test_analytic_sim_equivalence.py
checks against a reference implementation).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from operator import add, itemgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.partition import PartitionScheme, StageTimes, stage_times
from repro.profiling.modelconfig import ModelProfile

#: An operation id: ("F" | "B", stage, micro_batch).
OpId = Tuple[str, int, int]

WARMUP = "warmup"
STEADY = "steady"
COOLDOWN = "cooldown"


def _stage_order(n: int, m: int, x: int) -> List[Tuple[OpId, str]]:
    """The (op, phase) execution sequence of stage ``x`` (Megatron 1F1B)."""
    w = min(m, n - 1 - x)
    s = m - w
    order: List[Tuple[OpId, str]] = []
    for mb in range(w):
        order.append((("F", x, mb), WARMUP))
    for j in range(s):
        order.append((("F", x, w + j), STEADY))
        order.append((("B", x, j), STEADY))
    for mb in range(s, m):
        order.append((("B", x, mb), COOLDOWN))
    return order


class _Shape:
    """Topology of the ``(n, m)`` 1F1B dependency DAG.

    Nothing here depends on durations, so one instance is shared by every
    simulation of the same shape.  Arrays are indexed by a stage-major op
    index (stage ``x`` owns indices ``x*2m .. x*2m + 2m - 1`` in execution
    order).
    """

    __slots__ = (
        "n", "m", "ops", "index", "intra", "cross", "order",
        "stage", "is_fwd", "phases", "startup_index", "final_index",
        "dur_index", "k_cross", "k_intra", "k_op", "k_phase", "cost_of",
        "to_slots", "from_slots", "sink_slot", "startup_slot",
        "_levels", "_plans",
    )

    def __init__(self, n: int, m: int) -> None:
        self.n = n
        self.m = m
        ops: List[OpId] = []
        phases: List[str] = []
        index: Dict[OpId, int] = {}
        for x in range(n):
            for op, ph in _stage_order(n, m, x):
                index[op] = len(ops)
                ops.append(op)
                phases.append(ph)
        size = len(ops)
        #: intra-stage predecessor index (-1 for the first op of a stage).
        intra = [-1] * size
        for x in range(n):
            base = x * 2 * m
            for k in range(1, 2 * m):
                intra[base + k] = base + k - 1
        #: cross-stage dependency index (-1 when none): FP waits on the
        #: previous stage's FP, BP on the next stage's BP.
        cross = [-1] * size
        for i, (kind, x, mb) in enumerate(ops):
            if kind == "F" and x > 0:
                cross[i] = index[("F", x - 1, mb)]
            elif kind == "B" and x < n - 1:
                cross[i] = index[("B", x + 1, mb)]

        # Kahn's algorithm (FIFO, seeded in stage-major op order).  The
        # completion order is purely topological, so it is cached with the
        # shape; it also reproduces the reference implementation's dict
        # insertion order for the latest-op tie-break.
        indeg = [0] * size
        succs: List[List[int]] = [[] for _ in range(size)]
        for i in range(size):
            for q in (cross[i], intra[i]):
                if q >= 0:
                    indeg[i] += 1
                    succs[q].append(i)
        ready = deque(i for i in range(size) if indeg[i] == 0)
        order: List[int] = []
        while ready:
            i = ready.popleft()
            order.append(i)
            for nxt in succs[i]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if len(order) != size:
            raise RuntimeError("cyclic pipeline dependency graph (internal bug)")

        self.ops = ops
        self.index = index
        self.intra = intra
        self.cross = cross
        self.order = order
        self.stage = np.asarray([op[1] for op in ops], dtype=np.int64)
        self.is_fwd = np.asarray([op[0] == "F" for op in ops])
        self.phases = tuple(phases)
        self.startup_index = index[("F", n - 1, 0)]
        #: ``B(0, m-1)`` is a sink reachable from every op (BP cross deps
        #: chain down to stage 0 and intra deps chain each stage to its
        #: last op), and end times are monotone along edges (comm and
        #: durations are non-negative), so its end *is* the iteration time
        #: — no (size, K) max reduction needed.
        self.final_index = index[("B", 0, m - 1)]
        #: row of the stacked ``[fwd; bwd]`` (2n, K) stage-time matrix
        #: holding each op's duration: one gather replaces the
        #: fwd/bwd-gather + where dance per level.
        self.dur_index = np.where(self.is_fwd, self.stage, self.stage + n)

        # Kahn-ordered layout of the scalar evaluator.  Op ``order[p]``
        # owns *slot* ``p + 1`` of an end-time list whose slot 0 is a
        # sentinel holding ``0.0``; ``k_cross``/``k_intra`` give each
        # slot's predecessor slots (0 when missing), so the relaxation is
        # one branch-free ``zip`` loop that appends ends in slot order.
        # ``k_*`` tuples are slot-indexed (entry 0 is a placeholder).
        slot = [0] * size
        for pos, i in enumerate(order):
            slot[i] = pos + 1
        self.k_cross = (0, *(
            slot[cross[i]] if cross[i] >= 0 else 0 for i in order
        ))
        self.k_intra = (0, *(
            slot[intra[i]] if intra[i] >= 0 else 0 for i in order
        ))
        self.k_op = (None, *(ops[i] for i in order))
        self.k_phase = (None, *(phases[i] for i in order))
        #: gathers each op's ``(comm addend, duration)`` pair from the
        #: per-stage cost table of :meth:`PipelineSim._cost_table`: F on
        #: stage ``x`` reads row ``x``, B row ``n + x``, each row split
        #: into its no-comm and comm entries by whether a cross
        #: dependency exists.
        self.cost_of = itemgetter(*(
            2 * (x if kind == "F" else n + x) + (cross[i] >= 0)
            for i, (kind, x, _) in zip(order, self.k_op[1:])
        ))
        #: stage-major list -> Kahn-ordered tuple, and back from slots.
        self.to_slots = itemgetter(*order)
        self.from_slots = itemgetter(*slot)
        self.sink_slot = slot[self.final_index]
        self.startup_slot = slot[self.startup_index]
        self._levels: Optional[List[Tuple[np.ndarray, ...]]] = None
        self._plans: Dict[int, "_SuffixPlan"] = {}

    def levels(self) -> List[Tuple[np.ndarray, ...]]:
        """Wavefront plan for batched evaluation, built lazily.

        Ops are grouped by longest-path depth: every op in level ``d`` has
        all predecessors in levels ``< d``, so one level is one fully
        vectorisable step of the recurrence.  Each entry is
        ``(ops, cross_safe, has_cross, intra_safe, has_intra)`` where the
        ``*_safe`` index arrays clamp the missing-predecessor sentinel -1
        to 0 (masked out by the ``has_*`` arrays).
        """
        if self._levels is not None:
            return self._levels
        size = len(self.ops)
        depth = [0] * size
        for i in self.order:
            d = 0
            for p in (self.cross[i], self.intra[i]):
                if p >= 0 and depth[p] + 1 > d:
                    d = depth[p] + 1
            depth[i] = d
        by_level: Dict[int, List[int]] = {}
        for i in range(size):
            by_level.setdefault(depth[i], []).append(i)
        plan: List[Tuple[np.ndarray, ...]] = []
        for d in sorted(by_level):
            idx = np.asarray(by_level[d], dtype=np.int64)
            cross = np.asarray([self.cross[i] for i in by_level[d]], dtype=np.int64)
            intra = np.asarray([self.intra[i] for i in by_level[d]], dtype=np.int64)
            plan.append((
                idx,
                np.maximum(cross, 0), cross >= 0,
                np.maximum(intra, 0), intra >= 0,
            ))
        self._levels = plan
        return plan

    def suffix_plan(self, k: int) -> "_SuffixPlan":
        """The cut-``k`` resume plan (free lattice + suffix wavefront).

        Cached per shape: the free set is a pure function of the topology
        and the cut, never of the durations.
        """
        plan = self._plans.get(k)
        if plan is None:
            plan = _SuffixPlan(self, k)
            self._plans[k] = plan
        return plan


class _SuffixPlan:
    """Resume plan for one cut position ``k`` of a shape.

    *Free* ops are those whose start/end times depend only on the stage
    times of stages ``< k``: an op is free iff it lives on a prefix stage
    and every predecessor is free.  (Concretely: the Warmup FPs of the
    prefix stages plus each prefix stage's first steady FP — every other
    prefix op sits downstream of a BP, and BPs chain up from the last
    stage, so they feel the suffix times.)  Free sets are nested in ``k``,
    which is what makes per-stage :meth:`PrefixState.extend` checkpoints
    possible: the ``delta`` arrays list the ops that become free when the
    cut moves from ``k-1`` to ``k``, in topological order.

    The ``levels`` here are the shape's wavefront levels restricted to
    non-free ops: seeding the free columns from a checkpoint and relaxing
    only these levels visits every remaining op exactly once, with all
    predecessors (free or earlier-level) already final.
    """

    __slots__ = (
        "k", "free_mask", "free_idx", "free_idx_list", "free_pos",
        "delta", "delta_cross", "delta_intra", "levels", "nonfree_order",
        "max_level_width",
    )

    def __init__(self, shape: _Shape, k: int) -> None:
        if not 0 <= k < shape.n:
            raise ValueError(
                f"cut must satisfy 0 <= k < {shape.n}, got {k}"
            )
        size = len(shape.ops)
        stage, cross, intra = shape.stage, shape.cross, shape.intra
        free = [False] * size
        for i in shape.order:
            if stage[i] >= k:
                continue
            c, q = cross[i], intra[i]
            free[i] = (c < 0 or free[c]) and (q < 0 or free[q])
        self.k = k
        self.free_mask = np.asarray(free)
        self.free_idx = np.nonzero(self.free_mask)[0]
        #: plain-int view for scalar loops (avoids np.int64 indexing cost).
        self.free_idx_list = self.free_idx.tolist()
        #: op index -> row in the checkpoint's value arrays.
        self.free_pos = {i: p for p, i in enumerate(self.free_idx_list)}
        #: ops that turn free at this cut (vs cut k-1), topological order.
        if k == 0:
            newly: List[int] = []
        else:
            prev = shape.suffix_plan(k - 1).free_mask
            newly = [i for i in shape.order if free[i] and not prev[i]]
        self.delta = newly
        self.delta_cross = [cross[i] for i in newly]
        self.delta_intra = [intra[i] for i in newly]
        #: evaluation order of the remaining ops (the shape's topological
        #: order with free ops removed) for the scalar resume path.
        self.nonfree_order = [i for i in shape.order if not free[i]]
        #: shape levels restricted to non-free ops (empty levels dropped).
        #: Masks are stored as (w, 1) float columns (``x * 1.0 == x`` and
        #: ``x * 0.0 == +0.0`` for the finite non-negative end times, so
        #: float masks are bitwise equal to the bool forms) and each entry
        #: carries the level's rows into the stacked ``[fwd; bwd]``
        #: duration matrix, so the batched relaxation is pure
        #: gather/multiply/max with no per-level temporaries.
        levels: List[Tuple[np.ndarray, ...]] = []
        max_width = 0
        for idx, c_safe, has_c, q_safe, has_q in shape.levels():
            keep = ~self.free_mask[idx]
            if not keep.any():
                continue
            kept = idx[keep]
            max_width = max(max_width, len(kept))
            levels.append((
                kept,
                c_safe[keep], has_c[keep].astype(np.float64)[:, None],
                q_safe[keep], has_q[keep].astype(np.float64)[:, None],
                shape.dur_index[kept],
            ))
        self.levels = levels
        self.max_level_width = max_width


#: LRU cache of DAG topologies keyed by (num_stages, num_micro_batches).
_SHAPE_CACHE: "OrderedDict[Tuple[int, int], _Shape]" = OrderedDict()
_SHAPE_CACHE_SIZE = 128


def _shape(n: int, m: int) -> _Shape:
    key = (n, m)
    shape = _SHAPE_CACHE.get(key)
    if shape is None:
        shape = _Shape(n, m)
        _SHAPE_CACHE[key] = shape
        if len(_SHAPE_CACHE) > _SHAPE_CACHE_SIZE:
            _SHAPE_CACHE.popitem(last=False)
    else:
        _SHAPE_CACHE.move_to_end(key)
    return shape


@dataclass(frozen=True)
class SimResult:
    """Output of one pipeline simulation.

    Holds scalars and the critical path only, so results stay small in
    the planner's memos, the plan cache and pool pickles.  The per-op
    views (``op_start`` etc.) are built on first access by re-running the
    exact relaxation from ``(stage_times, num_micro_batches, comm_mode)``
    — bitwise equal to the values the simulation saw.
    """

    iteration_time: float
    startup_overhead: float
    master_stage: int
    critical_path: Tuple[OpId, ...]
    stage_times: StageTimes
    num_micro_batches: int
    comm_mode: str = "paper"

    @cached_property
    def _op_times(self) -> Tuple[Dict[OpId, float], Dict[OpId, float]]:
        return PipelineSim(
            self.stage_times, self.num_micro_batches, comm_mode=self.comm_mode
        )._op_times()

    @property
    def op_start(self) -> Dict[OpId, float]:
        return self._op_times[0]

    @property
    def op_end(self) -> Dict[OpId, float]:
        return self._op_times[1]

    @cached_property
    def op_phase(self) -> Dict[OpId, str]:
        shape = _shape(self.num_stages, self.num_micro_batches)
        return dict(zip(shape.ops, shape.phases))

    @property
    def num_stages(self) -> int:
        return self.stage_times.num_stages

    def stage_busy_time(self, stage: int) -> float:
        f, b = self.stage_times.fwd[stage], self.stage_times.bwd[stage]
        return self.num_micro_batches * (f + b)

    def bubble_fraction(self, stage: int) -> float:
        """Idle fraction of one stage over the iteration."""
        if self.iteration_time <= 0:
            return 0.0
        return 1.0 - self.stage_busy_time(stage) / self.iteration_time


@dataclass(frozen=True)
class PrefixState:
    """Checkpointed recurrence state of the first ``k`` pipeline stages.

    Holds the start/end times of the cut's *free lattice* — every op
    whose value is a pure function of the prefix stage times (see
    :class:`_SuffixPlan`) — in rows aligned with the plan's ``free_idx``.
    Because those values are computed with the exact per-op arithmetic of
    :meth:`PipelineSim.run`, any evaluation that seeds them and relaxes
    the remaining ops in topological order (:meth:`PipelineSim.resume`,
    :class:`SuffixSimBatch`) reproduces a cold run bit for bit.

    States extend one stage at a time (:meth:`extend`), which is how the
    search layers checkpoint "after each stage": the oracle's DFS derives
    the state of a partial assignment from its parent's in
    ``O(warmup depth)`` scalar steps instead of re-simulating the prefix.
    """

    n: int
    m: int
    k: int
    comm: float
    comm_mode: str
    prefix_fwd: Tuple[float, ...]
    prefix_bwd: Tuple[float, ...]
    #: free-lattice start/end values as plain float tuples (rows align
    #: with the plan's ``free_idx``); tuples keep :meth:`extend` chains —
    #: the oracle's hottest non-batched loop — free of numpy round-trips.
    _start: Tuple[float, ...] = field(repr=False, compare=False)
    _end: Tuple[float, ...] = field(repr=False, compare=False)

    @classmethod
    def initial(
        cls, n: int, m: int, comm: float, *, comm_mode: str = "paper"
    ) -> "PrefixState":
        """The empty checkpoint (cut 0): no stage fixed yet."""
        if n < 1:
            raise ValueError("need at least one stage")
        if m <= 0:
            raise ValueError("need at least one micro-batch")
        if comm < 0:
            raise ValueError("times must be non-negative")
        if comm_mode not in ("paper", "edges"):
            raise ValueError(f"unknown comm_mode {comm_mode!r}")
        return cls(
            n=n, m=m, k=0, comm=comm, comm_mode=comm_mode,
            prefix_fwd=(), prefix_bwd=(), _start=(), _end=(),
        )

    @property
    def num_free_ops(self) -> int:
        return len(self._end)

    def extend(self, fwd: float, bwd: float) -> "PrefixState":
        """Fix stage ``k``'s times, yielding the cut-``k+1`` checkpoint.

        Only the newly free ops (stage ``k``'s Warmup FPs and first steady
        FP) are evaluated — with the same arithmetic, in the same order, a
        cold run applies to them — so a chain of ``extend`` calls is
        bitwise equal to :meth:`PipelineSim.prefix_state` on the full
        vector.
        """
        if self.k >= self.n - 1:
            raise ValueError(
                f"cannot extend a cut-{self.k} state of a {self.n}-stage "
                "pipeline: at most n-1 stages can be checkpointed"
            )
        if fwd < 0 or bwd < 0:
            raise ValueError("times must be non-negative")
        shape = _shape(self.n, self.m)
        old_plan = shape.suffix_plan(self.k)
        new_plan = shape.suffix_plan(self.k + 1)
        size = len(shape.ops)
        # List-based scratch: the delta loop and later resume loops run on
        # plain Python floats (same doubles, no boxed-scalar arithmetic).
        start = [0.0] * size
        end = [0.0] * size
        for p, i in enumerate(old_plan.free_idx_list):
            start[i] = self._start[p]
            end[i] = self._end[p]
        comm = self.comm
        if self.comm_mode == "paper":
            for i, c, q in zip(
                new_plan.delta, new_plan.delta_cross, new_plan.delta_intra
            ):
                base = 0.0
                if c >= 0:
                    base = end[c]
                if q >= 0 and end[q] > base:
                    base = end[q]
                s = base + comm if c >= 0 else base
                start[i] = s
                end[i] = s + fwd
        else:
            for i, c, q in zip(
                new_plan.delta, new_plan.delta_cross, new_plan.delta_intra
            ):
                s = 0.0
                if c >= 0:
                    arrival = end[c] + comm
                    if arrival > s:
                        s = arrival
                if q >= 0 and end[q] > s:
                    s = end[q]
                start[i] = s
                end[i] = s + fwd
        return PrefixState(
            n=self.n, m=self.m, k=self.k + 1, comm=self.comm,
            comm_mode=self.comm_mode,
            prefix_fwd=self.prefix_fwd + (fwd,),
            prefix_bwd=self.prefix_bwd + (bwd,),
            _start=tuple(start[i] for i in new_plan.free_idx_list),
            _end=tuple(end[i] for i in new_plan.free_idx_list),
        )


class PipelineSim:
    """Evaluates the 1F1B dependency DAG for one partition scheme."""

    def __init__(
        self,
        times: StageTimes,
        num_micro_batches: int,
        *,
        comm_mode: str = "paper",
    ) -> None:
        if num_micro_batches <= 0:
            raise ValueError("need at least one micro-batch")
        if comm_mode not in ("paper", "edges"):
            raise ValueError(f"unknown comm_mode {comm_mode!r}")
        self.times = times
        self.m = num_micro_batches
        self.comm_mode = comm_mode
        self.n = times.num_stages
        self._shape = _shape(self.n, self.m)

    # -- op-order construction --------------------------------------------

    def stage_order(self, x: int) -> List[Tuple[OpId, str]]:
        """The (op, phase) execution sequence of stage ``x``."""
        return _stage_order(self.n, self.m, x)

    def _dependencies(self, op: OpId) -> List[OpId]:
        kind, x, mb = op
        deps: List[OpId] = []
        if kind == "F" and x > 0:
            deps.append(("F", x - 1, mb))
        if kind == "B" and x < self.n - 1:
            deps.append(("B", x + 1, mb))
        return deps

    def _duration(self, op: OpId) -> float:
        kind, x, _ = op
        return self.times.fwd[x] if kind == "F" else self.times.bwd[x]

    def _comm_applies(self, op: OpId) -> bool:
        kind, x, _ = op
        return (kind == "F" and x > 0) or (kind == "B" and x < self.n - 1)

    # -- evaluation --------------------------------------------------------

    def _durations(self) -> List[float]:
        """Per-op durations: gather the stage's fwd/bwd time by op kind."""
        shape = self._shape
        return np.where(
            shape.is_fwd,
            np.asarray(self.times.fwd)[shape.stage],
            np.asarray(self.times.bwd)[shape.stage],
        ).tolist()

    def _relax_scalar(
        self,
        order: List[int],
        start: List[float],
        end: List[float],
        dur: List[float],
    ) -> None:
        """Run the start-time recurrence over ``order`` in place.

        ``order`` must be topologically consistent: every predecessor of
        an op is either earlier in ``order`` or already final in ``end``
        (a checkpointed free op).  The stage-major twin of :meth:`_relax`,
        shared by :meth:`prefix_state` (free order) and :meth:`resume`
        (non-free order), so every path performs the one IEEE operation
        sequence per op.
        """
        shape = self._shape
        comm = self.times.comm
        intra, cross = shape.intra, shape.cross
        if self.comm_mode == "paper":
            # start = max(0, intra end, cross end) (+ Comm when the paper's
            # equations add it, i.e. exactly when a cross dependency exists).
            for i in order:
                base = 0.0
                c = cross[i]
                if c >= 0:
                    base = end[c]
                q = intra[i]
                if q >= 0 and end[q] > base:
                    base = end[q]
                s = base + comm if c >= 0 else base
                start[i] = s
                end[i] = s + dur[i]
        else:
            # "edges": Comm charged on the cross-dependency arrival only.
            for i in order:
                s = 0.0
                c = cross[i]
                if c >= 0:
                    arrival = end[c] + comm
                    if arrival > s:
                        s = arrival
                q = intra[i]
                if q >= 0 and end[q] > s:
                    s = end[q]
                start[i] = s
                end[i] = s + dur[i]

    def _cost_table(self) -> List[Tuple[float, float]]:
        """The 4n-entry per-stage ``(comm addend, duration)`` table.

        Rows ``2r`` and ``2r + 1`` pair the duration of ``fwd + bwd``
        entry ``r`` with ``0.0`` and ``comm``: an op adds ``comm`` iff it
        has a cross dependency (FP off stage 0, BP off the last stage).
        ``base + 0.0 == base`` bitwise for the ``>= +0.0`` ends, so the
        unconditional add matches ``_relax_scalar``'s conditional one.
        """
        comm = self.times.comm
        table: List[Tuple[float, float]] = []
        for v in (*self.times.fwd, *self.times.bwd):
            table += ((0.0, v), (comm, v))
        return table

    def _relax(self, table: List[Tuple[float, float]]) -> List[float]:
        """End times of every op in Kahn slot order (slot 0: ``0.0``).

        The same IEEE sequence per op as :meth:`_relax_scalar` — max of
        predecessor ends, ``+ comm``, ``+ dur`` — over Kahn-ordered
        predecessor slots, with a missing predecessor reading the
        ``0.0`` sentinel (a no-op under ``max`` since ends are ``>= +0.0``).
        """
        shape = self._shape
        end = [0.0]
        append = end.append
        ops = zip(
            islice(shape.k_cross, 1, None), islice(shape.k_intra, 1, None),
            shape.cost_of(table),
        )
        if self.comm_mode == "paper":
            for c, q, (cm, d) in ops:
                a = end[c]
                b = end[q]
                append((a if a > b else b) + cm + d)
        else:
            # "edges": Comm charged on the cross-dependency arrival only.
            for c, q, (cm, d) in ops:
                a = end[c] + cm
                b = end[q]
                append((a if a > b else b) + d)
        return end

    def run(self) -> SimResult:
        return self._result(self._relax(self._cost_table()))

    def _op_times(self) -> Tuple[Dict[OpId, float], Dict[OpId, float]]:
        """Every op's start and end (the lazy :class:`SimResult` views)."""
        shape = self._shape
        table = self._cost_table()
        end = self._relax(table)
        ec = map(end.__getitem__, islice(shape.k_cross, 1, None))
        eq = map(end.__getitem__, islice(shape.k_intra, 1, None))
        comms = [cm for cm, _ in shape.cost_of(table)]
        if self.comm_mode == "paper":
            start = [(a if a > b else b) + cm for a, b, cm in zip(ec, eq, comms)]
        else:
            start = [a if a > b else b for a, b in zip(map(add, ec, comms), eq)]
        start.insert(0, 0.0)
        return (
            dict(zip(shape.ops, shape.from_slots(start))),
            dict(zip(shape.ops, shape.from_slots(end))),
        )

    # -- incremental evaluation -------------------------------------------

    def prefix_state(self, k: int) -> PrefixState:
        """Checkpoint the recurrence state of stages ``0..k-1``.

        Evaluates only the cut's free lattice (the ops whose times do not
        depend on stages ``>= k``), so the checkpoint can be taken without
        running the full simulation.  Equals a chain of ``k``
        :meth:`PrefixState.extend` steps bit for bit.
        """
        shape = self._shape
        plan = shape.suffix_plan(k)
        size = len(shape.ops)
        dur = self._durations()
        start = [0.0] * size
        end = [0.0] * size
        # free_idx ascends in stage-major op order, which is topological
        # within the free lattice (intra preds earlier in the stage, cross
        # preds on an earlier stage).
        self._relax_scalar(plan.free_idx_list, start, end, dur)
        return PrefixState(
            n=self.n, m=self.m, k=k, comm=self.times.comm,
            comm_mode=self.comm_mode,
            prefix_fwd=self.times.fwd[:k],
            prefix_bwd=self.times.bwd[:k],
            _start=tuple(start[i] for i in plan.free_idx_list),
            _end=tuple(end[i] for i in plan.free_idx_list),
        )

    @classmethod
    def resume(cls, state: PrefixState, suffix_times: StageTimes) -> SimResult:
        """Complete a checkpointed prefix with suffix stage times.

        ``suffix_times`` carries stages ``k..n-1`` (and must match the
        checkpoint's comm scalar).  The free lattice is seeded from the
        checkpoint and every remaining op — the whole suffix plus the
        BP-coupled part of the prefix — is relaxed in topological order
        with the cold path's arithmetic, so the returned
        :class:`SimResult` is bit-for-bit identical to
        ``PipelineSim(full_times, m).run()``: iteration time, startup
        overhead, critical path, master stage, ties included.
        """
        if suffix_times.comm != state.comm:
            raise ValueError(
                f"suffix comm {suffix_times.comm!r} does not match the "
                f"checkpoint's {state.comm!r}"
            )
        if state.k + suffix_times.num_stages != state.n:
            raise ValueError(
                f"cut-{state.k} checkpoint of a {state.n}-stage pipeline "
                f"needs {state.n - state.k} suffix stages, got "
                f"{suffix_times.num_stages}"
            )
        times = StageTimes(
            state.prefix_fwd + suffix_times.fwd,
            state.prefix_bwd + suffix_times.bwd,
            state.comm,
        )
        sim = cls(times, state.m, comm_mode=state.comm_mode)
        shape = sim._shape
        plan = shape.suffix_plan(state.k)
        size = len(shape.ops)
        dur = sim._durations()
        start = [0.0] * size
        end = [0.0] * size
        for p, i in enumerate(plan.free_idx_list):
            start[i] = state._start[p]
            end[i] = state._end[p]
        sim._relax_scalar(plan.nonfree_order, start, end, dur)
        return sim._result_stage_major(end)

    def _result_stage_major(self, end: List[float]) -> SimResult:
        """:meth:`_result` over end times indexed in stage-major op order.

        Shared by :meth:`resume` and the batch ``result`` methods, which
        compute the same end values in the shape's stage-major layout.
        """
        return self._result([0.0, *self._shape.to_slots(end)])

    def _start_at(self, end: List[float], j: int) -> float:
        """Start of the op in slot ``j``, recomputed from its preds' ends.

        The relaxation's own expression for that op, so the value is
        bitwise equal to the start the relaxation added ``dur`` to.
        """
        shape = self._shape
        c = shape.k_cross[j]
        a = end[c]
        b = end[shape.k_intra[j]]
        cm = self.times.comm if c else 0.0
        if self.comm_mode == "paper":
            return (a if a > b else b) + cm
        a = a + cm
        return a if a > b else b

    def _latest_slot(self, end: List[float]) -> int:
        """Latest op: ties toward the higher stage, then the earlier slot."""
        k_op = self._shape.k_op
        top = max(end)
        best = 0
        for j in range(1, len(end)):
            if end[j] == top and (best == 0 or k_op[j][1] > k_op[best][1]):
                best = j
        return best

    def _result(self, end: List[float]) -> SimResult:
        """Latest op, critical-path backtrack and master stage.

        ``end`` holds every op's end time in Kahn slot order (see
        :meth:`_relax`).  Every op but the sink ``B(0, m-1)`` is one of its
        ancestors and ends at or before its start (ends are monotone along
        edges), so when the sink's end exceeds its start in floats it is
        the unique latest op; otherwise (zero ``bwd[0]``) the full
        latest-op rule of the reference picks it.

        The backtrack applies the tight-predecessor rule only to the ops
        on the path: a predecessor is tight within the recurrences'
        tolerance, and among tight ones the walk prefers the higher stage
        (paper Fig. 4) — the intra predecessor of an FP, the cross one of
        a BP, as a cross predecessor always sits on a neighbouring stage.
        Starts are recomputed from the predecessors' ends with the
        relaxation's own expression, so nothing per-op is stored.
        """
        shape = self._shape
        k_cross, k_intra, k_op = shape.k_cross, shape.k_intra, shape.k_op
        comm = self.times.comm
        paper = self.comm_mode == "paper"
        sink = shape.sink_slot
        if end[sink] > self._start_at(end, sink):
            last = sink
        else:
            last = self._latest_slot(end)

        path: List[int] = []
        j = last
        while True:
            path.append(j)
            c = k_cross[j]
            q = k_intra[j]
            if not (c or q):
                break
            ec = end[c]
            eq = end[q]
            if paper:
                base = ec if ec > eq else eq
                lim = base - (1e-12 + 1e-9 * (base if base > 1.0 else 1.0))
                tight_c = c and ec >= lim
            else:
                arrival = ec + comm if c else 0.0
                s = arrival if arrival > eq else eq
                lim = s - (1e-12 + 1e-9 * (s if s > 1.0 else 1.0))
                tight_c = c and arrival >= lim
            tight_q = q and eq >= lim
            if tight_c and tight_q:
                j = q if k_op[j][0] == "F" else c
            else:
                j = c if tight_c else q
        path.reverse()

        # Master stage: the most steady-phase critical-path time (tie:
        # last), summed in path order like the reference.
        fwd, bwd = self.times.fwd, self.times.bwd
        k_phase = shape.k_phase
        weight = [0.0] * self.n
        for j in path:
            if k_phase[j] == STEADY:
                kind, x, _ = k_op[j]
                weight[x] += fwd[x] if kind == "F" else bwd[x]
        if max(weight) <= 0.0:
            # Degenerate pipelines (tiny m): fall back to the heaviest stage.
            weight = list(self.times.total)
        best = max(weight)
        master = max(x for x in range(self.n) if weight[x] >= best * (1 - 1e-9))
        return SimResult(
            iteration_time=end[last],
            startup_overhead=self._start_at(end, shape.startup_slot),
            master_stage=master,
            critical_path=tuple(k_op[j] for j in path),
            stage_times=self.times,
            num_micro_batches=self.m,
            comm_mode=self.comm_mode,
        )


class PipelineSimBatch:
    """Vectorised evaluation of many candidate stage-time vectors at once.

    All candidates share the pipeline shape ``(num_stages, m)`` and the
    comm mode — exactly the situation of a partition search, where
    thousands of candidate partitions of one model aggregate to different
    ``(fwd, bwd)`` stage vectors over the same dependency DAG.  ``comm``
    is normally one shared scalar; a ``(K,)`` vector gives each candidate
    row its own comm time (perturbation draws degrade the link per draw —
    see :mod:`repro.robustness`).  A vector whose entries all equal the
    scalar is bitwise equivalent to passing the scalar.

    The recurrences run level-by-level over the cached DAG wavefront
    (:meth:`_Shape.levels`): each level is one numpy step over a ``(K,)``
    column slice, so the Python-loop cost is the DAG *depth* instead of
    ``K * size``.  The arithmetic per op is the same IEEE sequence as the
    scalar :class:`PipelineSim` — ``max`` of predecessor ends, ``+ comm``,
    ``+ dur`` — so iteration times and startup overheads are bit-for-bit
    identical to ``K`` scalar runs
    (tests/core/test_search_properties.py asserts this).

    Critical-path backtracking and master-stage selection are *not*
    vectorised; :meth:`result` materialises the full :class:`SimResult`
    for one requested winner by handing the candidate's precomputed
    start/end row to the scalar finaliser.
    """

    def __init__(
        self,
        fwd: "np.ndarray",
        bwd: "np.ndarray",
        comm: float,
        num_micro_batches: int,
        *,
        comm_mode: str = "paper",
    ) -> None:
        fwd = np.ascontiguousarray(fwd, dtype=np.float64)
        bwd = np.ascontiguousarray(bwd, dtype=np.float64)
        if fwd.ndim != 2 or fwd.shape != bwd.shape:
            raise ValueError(
                f"need matching (K, num_stages) matrices, got {fwd.shape} "
                f"and {bwd.shape}"
            )
        if fwd.shape[1] < 1:
            raise ValueError("need at least one stage")
        if fwd.min(initial=0.0) < 0 or bwd.min(initial=0.0) < 0:
            raise ValueError("times must be non-negative")
        if np.ndim(comm) == 0:
            if comm < 0:
                raise ValueError("times must be non-negative")
            self.comm = float(comm)
            self._comm_vec: Optional[np.ndarray] = None
        else:
            vec = np.ascontiguousarray(comm, dtype=np.float64)
            if vec.shape != (fwd.shape[0],):
                raise ValueError(
                    f"per-candidate comm must have shape ({fwd.shape[0]},), "
                    f"got {vec.shape}"
                )
            if vec.min(initial=0.0) < 0:
                raise ValueError("times must be non-negative")
            self.comm = vec
            self._comm_vec = vec
        if num_micro_batches <= 0:
            raise ValueError("need at least one micro-batch")
        if comm_mode not in ("paper", "edges"):
            raise ValueError(f"unknown comm_mode {comm_mode!r}")
        self.fwd = fwd
        self.bwd = bwd
        self.m = num_micro_batches
        self.comm_mode = comm_mode
        self.num_candidates, self.n = fwd.shape
        self._shape = _shape(self.n, self.m)
        self._start: Optional[np.ndarray] = None
        self._end: Optional[np.ndarray] = None

    @classmethod
    def from_stage_times(
        cls,
        candidates: List[StageTimes],
        num_micro_batches: int,
        *,
        comm_mode: str = "paper",
    ) -> "PipelineSimBatch":
        if not candidates:
            raise ValueError("need at least one candidate")
        comm = candidates[0].comm
        if any(t.comm != comm for t in candidates):
            raise ValueError("all candidates must share one comm time")
        return cls(
            np.asarray([t.fwd for t in candidates]),
            np.asarray([t.bwd for t in candidates]),
            comm,
            num_micro_batches,
            comm_mode=comm_mode,
        )

    def _evaluate(self) -> None:
        if self._end is not None:
            return
        shape = self._shape
        size = len(shape.ops)
        # A (K, 1) comm column broadcasts through the identical IEEE
        # expressions as the scalar, so per-candidate comm costs nothing
        # on the scalar path and is bitwise equal when the entries agree.
        comm = self.comm if self._comm_vec is None else self._comm_vec[:, None]
        # (K, size) per-op durations: fwd/bwd of the op's stage by op kind.
        dur = np.where(
            shape.is_fwd[None, :],
            self.fwd[:, shape.stage],
            self.bwd[:, shape.stage],
        )
        start = np.zeros((self.num_candidates, size))
        end = np.zeros((self.num_candidates, size))
        paper = self.comm_mode == "paper"
        for idx, c_safe, has_c, q_safe, has_q in shape.levels():
            ce = np.where(has_c[None, :], end[:, c_safe], 0.0)
            qe = np.where(has_q[None, :], end[:, q_safe], 0.0)
            if paper:
                base = np.maximum(ce, qe)
                s = np.where(has_c[None, :], base + comm, base)
            else:
                s = np.maximum(
                    np.where(has_c[None, :], ce + comm, 0.0), qe
                )
            start[:, idx] = s
            end[:, idx] = s + dur[:, idx]
        self._start = start
        self._end = end

    def iteration_times(self) -> "np.ndarray":
        """Per-candidate iteration time, shape ``(K,)``."""
        self._evaluate()
        return self._end.max(axis=1)

    def startup_overheads(self) -> "np.ndarray":
        """Per-candidate startup overhead (first FP start on the last stage)."""
        self._evaluate()
        return self._start[:, self._shape.startup_index].copy()

    def result(self, k: int) -> SimResult:
        """Full :class:`SimResult` for candidate ``k`` (winner backtrack).

        Reuses the batched end row, so only the critical-path walk and
        master-stage selection run scalar — bit-identical to
        ``PipelineSim(times_k, m).run()``.
        """
        self._evaluate()
        comm = self.comm if self._comm_vec is None else float(self._comm_vec[k])
        times = StageTimes(
            tuple(self.fwd[k].tolist()), tuple(self.bwd[k].tolist()), comm
        )
        sim = PipelineSim(times, self.m, comm_mode=self.comm_mode)
        return sim._result_stage_major(self._end[k].tolist())


class SuffixSimBatch:
    """Batched completion of prefix checkpoints with ``(K, suffix)`` times.

    The incremental sibling of :class:`PipelineSimBatch`: instead of
    relaxing all ``2nm`` ops for every candidate, the cut's free lattice
    is seeded from checkpointed :class:`PrefixState` values and only the
    suffix wavefront (:attr:`_SuffixPlan.levels`) is relaxed — the exact
    situation of the oracle's chunk flushes, where every buffered leaf
    shares the prefix fixed by the partial assignment.

    Accepts either one shared :class:`PrefixState` (all ``K`` rows extend
    the same prefix) or a length-``K`` sequence of states agreeing on
    ``(n, m, k, comm, comm_mode)`` but with per-row prefix times.  The
    level arithmetic is the same IEEE sequence as the cold batch path and
    the seeds are bitwise equal to what a cold relaxation would compute
    for the free ops, so :meth:`iteration_times` / :meth:`result` are
    bit-for-bit identical to ``K`` cold runs.
    """

    def __init__(
        self,
        states,
        suffix_fwd: "np.ndarray",
        suffix_bwd: "np.ndarray",
        *,
        need_start: bool = True,
    ) -> None:
        if isinstance(states, PrefixState):
            shared: PrefixState = states
            state_list: Optional[List[PrefixState]] = None
        else:
            state_list = list(states)
            if not state_list:
                raise ValueError("need at least one prefix state")
            shared = state_list[0]
        suffix_fwd = np.ascontiguousarray(suffix_fwd, dtype=np.float64)
        suffix_bwd = np.ascontiguousarray(suffix_bwd, dtype=np.float64)
        if suffix_fwd.ndim != 2 or suffix_fwd.shape != suffix_bwd.shape:
            raise ValueError(
                f"need matching (K, suffix) matrices, got "
                f"{suffix_fwd.shape} and {suffix_bwd.shape}"
            )
        num_candidates, width = suffix_fwd.shape
        n, m, k = shared.n, shared.m, shared.k
        if width != n - k:
            raise ValueError(
                f"cut-{k} checkpoint of a {n}-stage pipeline needs "
                f"{n - k} suffix columns, got {width}"
            )
        if state_list is not None and len(state_list) != num_candidates:
            raise ValueError(
                f"got {len(state_list)} prefix states for "
                f"{num_candidates} suffix rows"
            )
        if suffix_fwd.min(initial=0.0) < 0 or suffix_bwd.min(initial=0.0) < 0:
            raise ValueError("times must be non-negative")
        if state_list is not None:
            sig = (n, m, k, shared.comm, shared.comm_mode)
            for st in state_list[1:]:
                if (st.n, st.m, st.k, st.comm, st.comm_mode) != sig:
                    raise ValueError(
                        "all prefix states must share (n, m, k, comm, "
                        "comm_mode)"
                    )
        self.n, self.m, self.k = n, m, k
        self.comm = shared.comm
        self.comm_mode = shared.comm_mode
        self.num_candidates = num_candidates
        self._shape = _shape(n, m)
        self._plan = self._shape.suffix_plan(k)
        # Full (K, n) stage-time matrices; prefix columns from the states.
        fwd = np.empty((num_candidates, n))
        bwd = np.empty((num_candidates, n))
        if state_list is None:
            fwd[:, :k] = shared.prefix_fwd
            bwd[:, :k] = shared.prefix_bwd
        else:
            fwd[:, :k] = [st.prefix_fwd for st in state_list]
            bwd[:, :k] = [st.prefix_bwd for st in state_list]
        fwd[:, k:] = suffix_fwd
        bwd[:, k:] = suffix_bwd
        self.fwd = fwd
        self.bwd = bwd
        nfree = len(self._plan.free_idx)
        if state_list is None:
            self._seed_start = np.broadcast_to(
                np.asarray(shared._start), (num_candidates, nfree)
            )
            self._seed_end = np.broadcast_to(
                np.asarray(shared._end), (num_candidates, nfree)
            )
        else:
            self._seed_start = np.asarray(
                [st._start for st in state_list]
            ).reshape(num_candidates, nfree)
            self._seed_end = np.asarray(
                [st._end for st in state_list]
            ).reshape(num_candidates, nfree)
        self._need_start = need_start
        self._start: Optional[np.ndarray] = None
        self._end: Optional[np.ndarray] = None

    def _evaluate(self) -> None:
        if self._end is not None:
            return
        shape = self._shape
        plan = self._plan
        size = len(shape.ops)
        num = self.num_candidates
        comm = self.comm
        # Op-major (size, K) layout: one level's ops are consecutive rows,
        # so the per-level gathers/scatters copy contiguous memory instead
        # of striding across candidate rows.  Durations live in a stacked
        # (2n, K) matrix indexed by the plan's precomputed rows — one
        # gather per level, no fwd/bwd select.
        dur_src = np.empty((2 * self.n, num))
        dur_src[: self.n] = self.fwd.T
        dur_src[self.n :] = self.bwd.T
        # Start times are only read back through startup_overheads() /
        # result(); the oracle's flushes never do, and skipping the array
        # saves one scatter per level on the hottest path.
        start = np.zeros((size, num)) if self._need_start else None
        end = np.zeros((size, num))
        if len(plan.free_idx):
            if start is not None:
                start[plan.free_idx, :] = self._seed_start.T
            end[plan.free_idx, :] = self._seed_end.T
        paper = self.comm_mode == "paper"
        # Masking with ``* mask`` / ``+ comm * mask`` is bitwise equal to
        # the np.where forms of the cold batch path: end times are finite
        # and >= +0.0, so ``x * 1.0 == x``, ``x * 0.0 == +0.0`` and
        # ``x + 0.0 == x`` hold exactly; where the mask is set the masked
        # expression evaluates the identical IEEE sequence.  Gathers reuse
        # three preallocated (max_width, K) buffers — the loop allocates
        # nothing but the tiny per-level comm addend.
        width = plan.max_level_width
        buf_c = np.empty((width, num))
        buf_q = np.empty((width, num))
        buf_d = np.empty((width, num))
        for idx, c_safe, has_c, q_safe, has_q, dur_rows in plan.levels:
            w = len(idx)
            ce = np.take(end, c_safe, axis=0, out=buf_c[:w], mode="clip")
            ce *= has_c
            qe = np.take(end, q_safe, axis=0, out=buf_q[:w], mode="clip")
            qe *= has_q
            if paper:
                s = np.maximum(ce, qe, out=ce)
                s += comm * has_c
            else:
                ce += comm * has_c
                s = np.maximum(ce, qe, out=ce)
            if start is not None:
                start[idx] = s
            s += np.take(dur_src, dur_rows, axis=0, out=buf_d[:w], mode="clip")
            end[idx] = s
        self._start = start
        self._end = end

    def iteration_times(self) -> "np.ndarray":
        """Per-candidate iteration time, shape ``(K,)``."""
        self._evaluate()
        # ``B(0, m-1)`` is a sink reachable from every op with monotone
        # end times along edges, so its row equals the per-column max.
        return self._end[self._shape.final_index].copy()

    def startup_overheads(self) -> "np.ndarray":
        """Per-candidate startup overhead (first FP start on the last stage)."""
        self._ensure_start()
        return self._start[self._shape.startup_index].copy()

    def _ensure_start(self) -> None:
        """Re-run the relaxation with the start array materialised."""
        self._evaluate()
        if self._start is None:
            self._need_start = True
            self._end = None
            self._evaluate()

    def result(self, k: int) -> SimResult:
        """Full :class:`SimResult` for candidate ``k`` (winner backtrack)."""
        self._evaluate()
        times = StageTimes(
            tuple(self.fwd[k].tolist()), tuple(self.bwd[k].tolist()), self.comm
        )
        sim = PipelineSim(times, self.m, comm_mode=self.comm_mode)
        return sim._result_stage_major(self._end[:, k].tolist())


def simulate_partition(
    profile: ModelProfile,
    partition: PartitionScheme,
    num_micro_batches: int,
    *,
    comm_mode: str = "paper",
) -> SimResult:
    """Convenience wrapper: aggregate stage times from a profile and run."""
    return PipelineSim(
        stage_times(partition, profile), num_micro_batches, comm_mode=comm_mode
    ).run()
