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
  module-level :data:`shape cache <_SHAPE_CACHE>` stores it in *round
  order* (:class:`_Shape`), built directly with no graph search.  Any
  topological order gives the same end times, and within a stage slots
  keep program order, so the tie-breaks pick the same ops as the
  reference's Kahn order;
* every op is relaxed by one function generated once per ``(depth,
  comm mode)`` with ``compile``/``exec`` from integers only
  (:func:`_relax_source`) and used for every ``m``.  Per-stage end times
  live in locals, and three loops follow the slot order: the warmup,
  the ``s_0 = max(0, m - n + 1)`` full rounds (every stage steady; each
  stores its ``2n`` ends with one ``list.extend``) and the ramp-down.
  The source has O(n) statements, so compiling one takes from ~0.25 ms
  at depth 2 to ~2-3 ms at depth 16, paid at a depth's first use;
* each op performs the reference recurrence's IEEE sequence —
  ``max(cross, intra) + comm + dur``, or ``max(cross + comm, intra) +
  dur`` in edges mode — bitwise equal because ends are finite and
  ``>= +0.0`` (:class:`~repro.core.partition.StageTimes` rejects NaN and
  infinities), which also lets the relaxation drop the ``+ 0.0`` of an
  op without a cross dependency and read a missing predecessor as
  ``0.0``;
* the latest op is the sink ``B(0, m-1)`` whenever its end exceeds its
  start; the tight-predecessor rule then walks only the ~``2(n+m)``-op
  critical path over flat per-slot stage, is-FP and cost-row tuples
  (two arrivals more than twice the top end's tolerance apart skip the
  tolerance arithmetic), and a second pass sums the master weights in
  path order.  No op id is built: :class:`SimResult` keeps scalars only
  and rebuilds the critical path and ``op_start``/``op_end`` on first
  access from the relaxation;
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
tie-breaks are bit-for-bit those of the dict-based reference evaluation
of the same recurrences in ``tests/core/test_analytic_sim_equivalence.py``.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import _checks
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
    """Topology of the ``(n, m)`` 1F1B dependency DAG, in round order.

    Nothing here depends on durations, so one instance is shared by every
    simulation of the same shape.  Op ``j`` owns *slot* ``j`` of an
    end-time list whose slot 0 is a sentinel holding ``0.0``.  The slots
    list the warmup FPs micro-batch-major, then ``m`` *rounds*: round
    ``r`` visits the stages from last to first, each placing
    ``F(x, w_x + r)`` then ``B(x, r)`` while the stage is steady, or just
    ``B(x, r)`` in its cooldown.  This order is topological (a BP's cross
    dependency was placed earlier in the round, an FP's in an earlier
    round) and, within a stage, slots follow program order.
    :func:`_relax_source` fills the slots in this order.

    ``cross``/``intra`` give every slot's predecessor slots (0 when
    missing), ``stage`` its stage, ``is_fp`` whether it is an FP and
    ``row`` its steady cost row, indexing ``fwd + bwd`` (-1 outside the
    steady phase).  Entry 0 of each is a placeholder.  Op ids are only
    built for the lazy views (:meth:`op_ids`).
    """

    __slots__ = ("cross", "intra", "stage", "is_fp", "row", "sink_slot",
                 "startup_slot")

    def __init__(self, n: int, m: int) -> None:
        warm = [min(m, n - 1 - x) for x in range(n)]
        # Per-stage ``(stage, is FP, cost row)`` of its phases.
        f_info = [((x, True, -1), (x, True, x)) for x in range(n)]
        b_info = [((x, False, -1), (x, False, n + x)) for x in range(n)]
        cross = [0]
        intra = [0]
        info = [(-1, False, -1)]
        last = [0] * n   # each stage's latest slot (its next op's intra)
        last_f = [0] * n  # each stage's latest FP slot
        for mb in range(warm[0]):
            for x in range(n - 1 - mb):
                j = len(cross)
                cross.append(last_f[x - 1] if x else 0)
                intra.append(last[x])
                info.append(f_info[x][0])
                last[x] = last_f[x] = j
        #: ``F(n-1, 0)`` opens round 0.
        self.startup_slot = len(cross)
        for r in range(m):
            for x in range(n - 1, -1, -1):
                steady = r < m - warm[x]
                if steady:
                    j = len(cross)
                    cross.append(last_f[x - 1] if x else 0)
                    intra.append(last[x])
                    info.append(f_info[x][1])
                    last[x] = last_f[x] = j
                j = len(cross)
                cross.append(last[x + 1] if x < n - 1 else 0)
                intra.append(last[x])
                info.append(b_info[x][steady])
                last[x] = j

        self.cross = tuple(cross)
        self.intra = tuple(intra)
        self.stage, self.is_fp, self.row = map(tuple, zip(*info))
        #: ``B(0, m-1)`` is a sink reachable from every op (BP cross deps
        #: chain down to stage 0 and intra deps chain each stage to its
        #: last op), and end times are monotone along edges (comm and
        #: durations are non-negative), so its end *is* the iteration time.
        self.sink_slot = len(cross) - 1

    def op_ids(self) -> List[Optional[OpId]]:
        """Every slot's op (slot 0: None).  Slots keep program order, so
        the ``k``-th FP or BP slot of a stage is micro-batch ``k``'s."""
        mb: Dict[Tuple[bool, int], Iterator[int]] = defaultdict(count)
        return [None] + [("F" if f else "B", x, next(mb[f, x]))
                         for f, x in zip(self.is_fp[1:], self.stage[1:])]

    def stage_major(self) -> List[int]:
        """Every slot, stage-major in program order (the views' order)."""
        return sorted(range(1, len(self.stage)), key=self.stage.__getitem__)


def _relax_source(n: int, paper: bool) -> str:
    """Python source of the depth-``n`` relaxation, used for every ``m``.

    Each stage keeps two locals, both starting at the sentinel ``0.0``:
    ``f<x>`` (its latest FP end, the next stage's cross dependency) and
    ``t<x>`` (its latest op end, its own intra dependency).  Three loops
    append every op's end in :class:`_Shape`'s slot order:

    * warmup: micro-batch ``mb`` runs stages ``0 .. n-2-mb``, whose only
      ops so far are FPs, so ``f<x>`` is also the intra dependency;
    * ``max(0, m-n+1)`` full rounds: every stage, last to first, runs F
      then B, and the round's ``2n`` ends go in with one ``extend``;
    * ramp-down round ``j`` (``max(0, n-1-m) .. n-2``): stage ``x`` runs
      F then B while ``x > j``, and B alone otherwise.

    Each op is the reference recurrence — ``max(cross, intra) + comm +
    dur`` in paper mode, ``max(cross + comm, intra) + dur`` in edges mode
    — with the ``0.0`` addends of comm-free ops dropped, which is bitwise
    the same because ends are never ``-0.0``.
    """
    def relax(out, cross, intra, dur):
        if cross is None:
            return [f"{out} = {intra} + {dur}"]
        if paper:
            return [
                f"{out} = ({cross} if {cross} > {intra} else {intra})"
                f" + c + {dur}"
            ]
        return [
            f"a = {cross} + c",
            f"{out} = (a if a > {intra} else {intra}) + {dur}",
        ]

    def indent(depth, body):
        return [" " * depth + line for line in body]

    top = n - 1
    lines = [
        "def relax(end, m, c, fwd, bwd):",
        f"    {''.join(f'F{x}, ' for x in range(n))}= fwd",
        f"    {''.join(f'B{x}, ' for x in range(n))}= bwd",
        f"    {''.join(f'f{x} = t{x} = ' for x in range(n))}0.0",
        "    append = end.append",
        "    extend = end.extend",
    ]
    if top:
        lines.append(f"    for mb in range(min(m, {top})):")
        for x in range(top):
            lines += indent(8, relax(
                f"f{x}", f"f{x - 1}" if x else None, f"f{x}", f"F{x}"))
            lines.append(f"        append(f{x})")
            if x < top - 1:
                lines.append(f"        if mb == {top - 1 - x}: continue")
        lines.append(f"    {', '.join(f't{x}' for x in range(top))}"
                     f" = {', '.join(f'f{x}' for x in range(top))}")
    lines.append(f"    for _ in range(m - {top}):")
    ends = []
    for x in range(top, -1, -1):
        lines += indent(8, relax(
            f"f{x}", f"f{x - 1}" if x else None, f"t{x}", f"F{x}"))
        lines += indent(8, relax(
            f"t{x}", f"t{x + 1}" if x < top else None, f"f{x}", f"B{x}"))
        ends += [f"f{x}", f"t{x}"]
    lines.append(f"        extend(({', '.join(ends)},))")
    if top:
        lines.append(f"    for j in range(max(0, {top} - m), {top}):")
        for x in range(top, -1, -1):
            if x:
                lines.append(f"        if j < {x}:")
                lines += indent(12, relax(
                    f"f{x} = t{x}", f"f{x - 1}", f"t{x}", f"F{x}"))
                lines.append(f"            append(f{x})")
            lines += indent(8, relax(
                f"t{x}", f"t{x + 1}" if x < top else None, f"t{x}", f"B{x}"))
            lines.append(f"        append(t{x})")
    return "\n".join(lines) + "\n"


#: Compiled relaxations keyed by ``(num_stages, paper comm mode)``.
_RELAXATIONS: Dict[Tuple[int, bool], Callable] = {}


def _relaxation(n: int, paper: bool) -> Callable:
    """The compiled relaxation of depth ``n`` (see :func:`_relax_source`)."""
    key = (n, paper)
    fn = _RELAXATIONS.get(key)
    if fn is None:
        scope: Dict[str, Callable] = {}
        exec(compile(_relax_source(n, paper), f"<1f1b relax n={n}>", "exec"),
             scope)
        fn = _RELAXATIONS[key] = scope["relax"]
    return fn


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

    Holds scalars only, so results stay small in the planner's memos
    and the plan and sweep caches.  The critical path and the per-op
    views (``op_start`` etc.) are built on first access by re-running the
    exact relaxation from ``(stage_times, num_micro_batches, comm_mode)``
    — bitwise equal to the values the simulation saw.
    """

    iteration_time: float
    startup_overhead: float
    master_stage: int
    stage_times: StageTimes
    num_micro_batches: int
    comm_mode: str = "paper"

    def _sim(self) -> "PipelineSim":
        return PipelineSim(
            self.stage_times, self.num_micro_batches, comm_mode=self.comm_mode
        )

    @cached_property
    def critical_path(self) -> Tuple[OpId, ...]:
        sim = self._sim()
        ops = sim._shape.op_ids()
        return tuple([ops[j] for j in reversed(sim._walk(sim._relax()))])

    @cached_property
    def _op_times(self) -> Tuple[Dict[OpId, float], Dict[OpId, float]]:
        return self._sim()._op_times()

    @property
    def op_start(self) -> Dict[OpId, float]:
        return self._op_times[0]

    @property
    def op_end(self) -> Dict[OpId, float]:
        return self._op_times[1]

    @cached_property
    def op_phase(self) -> Dict[OpId, str]:
        shape = _shape(self.num_stages, self.num_micro_batches)
        ops, row, is_fp = shape.op_ids(), shape.row, shape.is_fp
        return {
            ops[j]: STEADY if row[j] >= 0 else WARMUP if is_fp[j] else COOLDOWN
            for j in shape.stage_major()
        }

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
        n = _checks.count("n", n)
        m = _checks.count("m", m)
        _checks.real("comm", comm)
        _checks.choice("comm_mode", comm_mode, _checks.COMM_MODES)
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
        _checks.choice("comm_mode", comm_mode, _checks.COMM_MODES)
        self.times = times
        self.m = _checks.count("num_micro_batches", num_micro_batches)
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

    def _relax(self) -> List[float]:
        """End times of every op in slot order (slot 0: ``0.0``)."""
        times = self.times
        end = [0.0]
        _relaxation(self.n, self.comm_mode == "paper")(
            end, self.m, times.comm, times.fwd, times.bwd
        )
        return end

    def run(self) -> SimResult:
        return self._result(self._relax())

    def _op_times(self) -> Tuple[Dict[OpId, float], Dict[OpId, float]]:
        """Every op's start and end (the lazy :class:`SimResult` views)."""
        shape = self._shape
        end = self._relax()
        slots = shape.stage_major()
        ops = list(map(shape.op_ids().__getitem__, slots))
        return (
            dict(zip(ops, [self._start_at(end, j) for j in slots])),
            dict(zip(ops, map(end.__getitem__, slots))),
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
        c = shape.cross[j]
        a = end[c]
        b = end[shape.intra[j]]
        cm = self.times.comm if c else 0.0
        if self.comm_mode == "paper":
            return (a if a > b else b) + cm
        a = a + cm
        return a if a > b else b

    def _latest_slot(self, end: List[float]) -> int:
        """Latest op: ties toward the higher stage, then the earlier slot."""
        top, stage = max(end), self._shape.stage
        tied = [j for j in range(1, len(end)) if end[j] == top]
        return max(tied, key=lambda j: (stage[j], -j))

    def _walk(self, end: List[float]) -> List[int]:
        """Critical-path slots of ``end`` (:meth:`_relax`), latest first.

        Every other op is an ancestor of the sink ``B(0, m-1)`` and ends by
        its start, so the sink is the latest op when its end exceeds its
        start; otherwise (zero ``bwd[0]``) the reference's rule picks it.
        Among tight predecessors the walk prefers the higher stage (paper
        Fig. 4): the intra one of an FP, the cross one of a BP.
        """
        shape = self._shape
        cross, intra, is_fp = shape.cross, shape.intra, shape.is_fp
        j = shape.sink_slot
        if not end[j] > self._start_at(end, j):
            j = self._latest_slot(end)

        # Only an op with both predecessors needs the tolerance test: the
        # later arrival is always tight, the other one when within the
        # tolerance of it, and a tie goes to the higher stage.  ``+ 0.0``
        # (paper mode) leaves the ``>= +0.0`` ends bitwise unchanged.
        # Every arrival on the path is at most the top end, so no
        # tolerance exceeds the top's; arrivals more than twice that apart
        # (the margin dwarfs the rounding of ``a - b`` and of ``lim``)
        # leave only the later one tight, and skip the arithmetic.
        cm = self.times.comm if self.comm_mode == "edges" else 0.0
        top = end[j]
        gap = 2.0 * (1e-12 + 1e-9 * (top if top > 1.0 else 1.0))
        path = [j]
        append = path.append
        while True:
            c = cross[j]
            q = intra[j]
            if not c:
                if not q:
                    return path
                j = q
            elif not q:
                j = c
            else:
                a = end[c] + cm
                b = end[q]
                d = a - b
                if d > gap:
                    j = c
                elif d < -gap:
                    j = q
                else:
                    base = a if a > b else b
                    lim = base - (
                        1e-12 + 1e-9 * (base if base > 1.0 else 1.0)
                    )
                    if is_fp[j]:
                        j = q if b >= lim else c
                    else:
                        j = c if a >= lim else q
            append(j)

    def _result(self, end: List[float]) -> SimResult:
        """Latest op, critical-path walk (:meth:`_walk`) and master stage."""
        shape = self._shape
        path = self._walk(end)

        # Master stage: the most steady-phase critical-path time (tie:
        # last), summed in path order like the reference.
        stage, row = shape.stage, shape.row
        durs = (*self.times.fwd, *self.times.bwd)
        weight = [0.0] * self.n
        for j in reversed(path):
            r = row[j]
            if r >= 0:
                weight[stage[j]] += durs[r]
        best = max(weight)
        if best <= 0.0:
            # Degenerate pipelines (tiny m): fall back to the heaviest stage.
            weight = self.times.total
            best = max(weight)
        lim = best * (1 - 1e-9)
        for master in range(self.n - 1, -1, -1):
            if weight[master] >= lim:
                break
        return SimResult(
            iteration_time=end[path[0]],
            startup_overhead=self._start_at(end, shape.startup_slot),
            master_stage=master,
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
