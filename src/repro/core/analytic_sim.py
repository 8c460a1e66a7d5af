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
  plan-cache and sweep-cache pickles) and rebuilds
  ``op_start``/``op_end`` on first access by re-running the relaxation;
* the planner's nominal master-shift loop stays on this scalar path
  rather than the max-plus kernel of :mod:`repro.sim.analytic`: its
  shift waves average 1.55 uncached candidates over the end-to-end
  ``plan`` benchmark stream, too few for a batched sweep to amortise,
  and a frontier carries no critical path or master stage.

:meth:`PipelineSim.resume` (of a :class:`PrefixState`) and each row of
:class:`PipelineSimBatch` / :class:`SuffixSimBatch` are one cold
:meth:`PipelineSim.run`; batched scoring is the max-plus kernel of
:mod:`repro.sim.analytic`, which equals these runs bit for bit.

All of this is exact: start/end times, critical path, master stage and
tie-breaks are bit-for-bit identical to the straightforward dict-based
evaluation of the same recurrences (tests/core/test_analytic_sim_equivalence.py
checks against a reference implementation).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import add, itemgetter
from typing import Dict, List, Tuple

import numpy as np

from repro.core.partition import PartitionScheme, StageTimes, stage_times
from repro.profiling.modelconfig import ModelProfile
from repro.schedules.base import check_micro_batches

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
    simulation of the same shape.  ``ops``/``phases`` list the ops in
    stage-major order (stage ``x`` owns indices ``x*2m .. x*2m + 2m - 1``
    in execution order); the ``k_*`` tuples are indexed by Kahn slot.
    """

    __slots__ = (
        "n", "m", "ops", "phases", "k_cross", "k_intra", "k_op",
        "k_phase", "cost_of", "from_slots", "sink_slot", "startup_slot",
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
        # completion order is purely topological, so the slot layout below
        # is cached with the shape; it also reproduces the reference
        # implementation's dict insertion order for the latest-op tie-break.
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
        self.phases = tuple(phases)

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
        #: Kahn-ordered slots -> stage-major op order.
        self.from_slots = itemgetter(*slot)
        #: ``B(0, m-1)`` is a sink reachable from every op (BP cross deps
        #: chain down to stage 0 and intra deps chain each stage to its
        #: last op), and end times are monotone along edges (comm and
        #: durations are non-negative), so its end *is* the iteration time.
        self.sink_slot = slot[index[("B", 0, m - 1)]]
        self.startup_slot = slot[index[("F", n - 1, 0)]]


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
    the planner's memos and the plan and sweep caches.  The per-op
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
    """The fixed times of the first ``k`` stages of an ``n``-stage pipeline.

    A cut-descent search's partial assignment, grown one stage at a time
    (:meth:`extend`) and completed by :meth:`PipelineSim.resume`, which
    runs the cold simulation of the full vector.
    """

    n: int
    m: int
    k: int
    comm: float
    comm_mode: str
    prefix_fwd: Tuple[float, ...]
    prefix_bwd: Tuple[float, ...]

    @classmethod
    def initial(
        cls, n: int, m: int, comm: float, *, comm_mode: str = "paper"
    ) -> "PrefixState":
        """The empty prefix (cut 0): no stage fixed yet."""
        if n < 1:
            raise ValueError("need at least one stage")
        if m <= 0:
            raise ValueError("need at least one micro-batch")
        if comm < 0:
            raise ValueError("times must be non-negative")
        if comm_mode not in ("paper", "edges"):
            raise ValueError(f"unknown comm_mode {comm_mode!r}")
        return cls(n, m, 0, comm, comm_mode, (), ())

    def extend(self, fwd: float, bwd: float) -> "PrefixState":
        """Fix stage ``k``'s times, yielding the cut-``k+1`` prefix."""
        if self.k >= self.n - 1:
            raise ValueError(
                f"cannot extend a cut-{self.k} state of a {self.n}-stage "
                "pipeline: at most n-1 stages can be checkpointed"
            )
        if fwd < 0 or bwd < 0:
            raise ValueError("times must be non-negative")
        return PrefixState(
            self.n, self.m, self.k + 1, self.comm, self.comm_mode,
            self.prefix_fwd + (fwd,), self.prefix_bwd + (bwd,),
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
        if comm_mode not in ("paper", "edges"):
            raise ValueError(f"unknown comm_mode {comm_mode!r}")
        self.times = times
        self.m = check_micro_batches(num_micro_batches)
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

    def _cost_table(self) -> List[Tuple[float, float]]:
        """The 4n-entry per-stage ``(comm addend, duration)`` table.

        Rows ``2r`` and ``2r + 1`` pair the duration of ``fwd + bwd``
        entry ``r`` with ``0.0`` and ``comm``: an op adds ``comm`` iff it
        has a cross dependency (FP off stage 0, BP off the last stage).
        ``base + 0.0 == base`` bitwise for the ``>= +0.0`` ends, so the
        unconditional add matches the reference recurrence's conditional
        one.
        """
        comm = self.times.comm
        table: List[Tuple[float, float]] = []
        for v in (*self.times.fwd, *self.times.bwd):
            table += ((0.0, v), (comm, v))
        return table

    def _relax(self, table: List[Tuple[float, float]]) -> List[float]:
        """End times of every op in Kahn slot order (slot 0: ``0.0``).

        The reference recurrence's IEEE sequence per op — max of
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

    def prefix_state(self, k: int) -> PrefixState:
        """The first ``k`` stages' times as a :class:`PrefixState`."""
        if not 0 <= k < self.n:
            raise ValueError(f"cut must satisfy 0 <= k < {self.n}, got {k}")
        return PrefixState(
            self.n, self.m, k, self.times.comm, self.comm_mode,
            self.times.fwd[:k], self.times.bwd[:k],
        )

    @classmethod
    def resume(cls, state: PrefixState, suffix_times: StageTimes) -> SimResult:
        """Complete a prefix with stages ``k..n-1`` and run the result.

        ``suffix_times`` must carry the prefix's comm scalar; the returned
        :class:`SimResult` is ``PipelineSim(full_times, m).run()``.
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
        return cls(times, state.m, comm_mode=state.comm_mode).run()

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


def _rows(fwd, bwd) -> Tuple[List[List[float]], List[List[float]]]:
    """Matching ``(K, stages)`` fwd/bwd matrices as lists of float rows."""
    fwd = np.asarray(fwd, dtype=np.float64)
    bwd = np.asarray(bwd, dtype=np.float64)
    if fwd.ndim != 2 or fwd.shape != bwd.shape:
        raise ValueError(
            f"need matching (K, stages) matrices, got {fwd.shape} and "
            f"{bwd.shape}"
        )
    return fwd.tolist(), bwd.tolist()


class _Runs:
    """Read-outs over ``K`` finished :class:`PipelineSim` runs."""

    def iteration_times(self) -> "np.ndarray":
        """Per-candidate iteration time, shape ``(K,)``."""
        return np.array([r.iteration_time for r in self._results], float)

    def startup_overheads(self) -> "np.ndarray":
        """Per-candidate startup overhead (first FP start on the last stage)."""
        return np.array([r.startup_overhead for r in self._results], float)

    def result(self, k: int) -> SimResult:
        """The full :class:`SimResult` of candidate ``k``."""
        return self._results[k]


class PipelineSimBatch(_Runs):
    """``K`` candidate stage-time vectors of one ``(num_stages, m)`` shape.

    Row ``k`` of the ``(K, num_stages)`` matrices ``fwd``/``bwd`` is one
    :class:`PipelineSim` run.  ``comm`` is one shared scalar, or a ``(K,)``
    vector giving each row its own comm time (perturbation draws degrade
    the link per draw — see :mod:`repro.robustness`).
    """

    def __init__(
        self, fwd: "np.ndarray", bwd: "np.ndarray", comm: float,
        num_micro_batches: int, *, comm_mode: str = "paper",
    ) -> None:
        fwd, bwd = _rows(fwd, bwd)
        comms = np.asarray(comm, dtype=np.float64)
        if comms.ndim == 0:
            comms = np.full(len(fwd), comms)
        elif comms.shape != (len(fwd),):
            raise ValueError(
                f"per-candidate comm must have shape ({len(fwd)},), "
                f"got {comms.shape}"
            )
        self._results = [
            PipelineSim(
                StageTimes(tuple(f), tuple(b), c), num_micro_batches,
                comm_mode=comm_mode,
            ).run()
            for f, b, c in zip(fwd, bwd, comms.tolist())
        ]

    @classmethod
    def from_stage_times(
        cls, candidates: List[StageTimes], num_micro_batches: int, *,
        comm_mode: str = "paper",
    ) -> "PipelineSimBatch":
        if not candidates:
            raise ValueError("need at least one candidate")
        comm = candidates[0].comm
        if any(t.comm != comm for t in candidates):
            raise ValueError("all candidates must share one comm time")
        return cls(
            [t.fwd for t in candidates], [t.bwd for t in candidates], comm,
            num_micro_batches, comm_mode=comm_mode,
        )


class SuffixSimBatch(_Runs):
    """``K`` :meth:`PipelineSim.resume` calls, one per suffix row.

    ``states`` is one shared :class:`PrefixState` or ``K`` states agreeing
    on ``(n, m, k, comm, comm_mode)``; row ``j`` of the ``(K, n - k)``
    matrices ``suffix_fwd``/``suffix_bwd`` holds stages ``k..n-1``.
    """

    def __init__(
        self, states, suffix_fwd: "np.ndarray", suffix_bwd: "np.ndarray"
    ) -> None:
        suffix_fwd, suffix_bwd = _rows(suffix_fwd, suffix_bwd)
        if isinstance(states, PrefixState):
            states = [states] * len(suffix_fwd)
        states = list(states)
        if len(states) != len(suffix_fwd):
            raise ValueError(
                f"got {len(states)} prefix states for {len(suffix_fwd)} "
                "suffix rows"
            )
        if len({(s.n, s.m, s.k, s.comm, s.comm_mode) for s in states}) > 1:
            raise ValueError(
                "all prefix states must share (n, m, k, comm, comm_mode)"
            )
        self._results = [
            PipelineSim.resume(st, StageTimes(tuple(f), tuple(b), st.comm))
            for st, f, b in zip(states, suffix_fwd, suffix_bwd)
        ]


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
