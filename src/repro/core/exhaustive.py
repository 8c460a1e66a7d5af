"""Exhaustive pipeline-partition search (verification oracle).

The oracle finds the *true* optimal contiguous partition of the block
sequence into ``p`` stages, to quantify how close the heuristic Planner
gets (the paper argues the heuristic trades a bounded amount of quality
for an order-of-magnitude search-time reduction;
``benchmarks/test_bench_ablation_search.py`` and
``tests/core/test_exhaustive.py`` measure exactly that).

Two search modes share one argmin semantics (first partition in the
lexicographic cut order achieving the minimum iteration time):

* ``prune=False`` — the literal brute force: every one of the
  ``C(n-1, p-1)`` candidates is simulated by the scalar
  :class:`~repro.core.analytic_sim.PipelineSim`.  This is the
  bit-exactness reference.
* ``prune=True`` (default) — branch-and-bound over cut positions
  (:func:`_search_analytic`).  The Algorithm-1 min-max partition
  seeds the incumbent and, on large spaces, a steepest-descent climb
  over one-block transfers tightens it; the lower bounds of
  :class:`_Bounds` then admit stage sizes level by level, a dominance
  memo drops twin prefixes where a zero-cost block can make them, and
  every admitted candidate is scored by the closed-form max-plus
  frontier kernel (:mod:`repro.sim.analytic`).  Candidate stage times
  use the brute force's left-to-right slice sums and the kernel is
  bit-identical to the scalar simulator, so the returned partition and
  iteration time match the brute force exactly (property-tested in
  ``tests/core/test_search_properties.py`` and
  ``tests/sim/test_analytic.py``).

``robust=`` objectives run the same branch-and-bound with ``D``
perturbation draws: every bound gets a draw axis, is reduced with the
objective's statistic, and a candidate is scored as ``D`` kernel
columns (:class:`_Objective`); the nominal search is its ``D = 1``,
identity-factor case.  ``prune=False`` keeps the literal enumeration
(:func:`_search_robust`), the robust search's specification.
"""

from __future__ import annotations

import itertools
import math
import time as _time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import _checks
from repro.core.analytic_sim import PipelineSim, SimResult
from repro.core.balance_dp import min_max_partition
from repro.core.partition import PartitionScheme, StageTimes
from repro.obs import stats as _stats
from repro.obs import telemetry as _obs
from repro.profiling.modelconfig import ModelProfile
from repro.robustness.evaluate import (
    RobustObjective,
    reduce_statistic,
    robust_objective_batch,
)
from repro.sim.analytic import frontier_times_transposed

#: relative slack on the pruning test: a subtree is discarded only when
#: its lower bound exceeds the incumbent by more than this factor, so
#: float rounding in the prefix-sum bounds (~1e-14 relative) can never
#: prune the true optimum or a tie the brute force would have kept.
#: The searches read it at call time (tests patch it).
_PRUNE_SLACK = 1.0 + 1e-9

#: kernel rows (candidates x draws) per flush of the robust
#: enumeration (:func:`_search_robust`).
_DEFAULT_CHUNK = 1024

#: search-space size from which the analytic search climbs from its
#: Algorithm-1 seed before it expands the levels.  A climb round is one
#: kernel call (~0.5-1 ms on a 2-core x86-64 host, mostly fixed cost),
#: which small searches do not earn back: on the 30 queries of the
#: seed-1 ``oracle`` benchmark stream below this size, climbing took
#: 95 ms in total against 51-58 ms without (best of 5 per query).
_CLIMB_MIN_SPACE = 1_000_000

#: leaf columns assembled and scored per frontier-kernel call in the
#: analytic search.  The kernel walks its ~4p stage-major rows once per
#: paired step (one anti-diagonal), so the chunk is sized for cache, not
#: call overhead: on a 2-core x86-64 host (2 MB L2 per core) depth-12
#: zoo searches score ~1.8x faster per column at 8 192 columns than at
#: 131 072 (4 096 and 16 384 are within noise), and ~2x slower again at
#: 1 024 on the fixed per-call cost.  Results are chunk-size-invariant:
#: pure tuning.
_ANALYTIC_BLOCK = 8_192

#: lowest-bound leaf columns the analytic search scores first, to tighten
#: its incumbent before it filters the rest of the leaf level by bound.
#: Exact at any value (tests patch it): the filter only drops columns
#: whose lower bound exceeds a simulated time.
_PROBE_COLS = 4_096


@dataclass(frozen=True)
class ExhaustiveResult:
    """The true optimum over all contiguous partitions."""

    partition: PartitionScheme
    sim: SimResult
    #: candidates actually simulated: the seed (one kernel column per
    #: draw) plus, for the analytic search, the seed climb's columns and
    #: every other leaf column the kernel scored (the probe and the
    #: columns that passed the leaf-bound filter).
    evaluations: int
    search_seconds: float
    #: size of the search space, C(n-1, p-1).
    space: int
    #: candidates eliminated by the dominance memo (a subset of
    #: :attr:`pruned`, attributed to twin-subtree detection rather than
    #: the lower bounds).
    dominance_pruned: int = 0
    #: the winner's robust objective value when searching with
    #: ``robust=`` (statistic over the perturbation draws); None for the
    #: nominal objective.
    robust_value: Optional[float] = None
    #: times the incumbent (best-so-far candidate) was replaced during
    #: the search (folds into the ``oracle.incumbent_updates`` telemetry
    #: counter).
    incumbent_updates: int = 0

    @property
    def iteration_time(self) -> float:
        return self.sim.iteration_time

    @property
    def pruned(self) -> int:
        """Candidates never simulated: eliminated by the level bounds,
        the dominance memo or (analytic search) the leaf-bound filter
        after the probe."""
        return self.space - self.evaluations

    @property
    def sims_per_second(self) -> float:
        """Search throughput: full simulations per wall-clock second.

        Thin view over :func:`repro.obs.stats.rate` — the same formula
        the telemetry report derives from the ``oracle.evaluations`` /
        ``oracle.search_seconds`` counters, which are folded from these
        very fields.
        """
        return _stats.rate(self.evaluations, self.search_seconds)


def _check_cut(num_blocks: int, num_stages: int) -> None:
    """Reject a stage count that cannot cut ``num_blocks`` blocks."""
    if num_stages <= 0 or num_stages > num_blocks:
        raise ValueError(
            f"cannot cut {num_blocks} blocks into {num_stages} stages"
        )


def iter_partitions(num_blocks: int, num_stages: int) -> Iterator[Tuple[int, ...]]:
    """Yield every contiguous partition as a tuple of stage sizes."""
    _check_cut(num_blocks, num_stages)
    for cuts in itertools.combinations(range(1, num_blocks), num_stages - 1):
        edges = (0, *cuts, num_blocks)
        yield tuple(b - a for a, b in zip(edges, edges[1:]))


def count_partitions(num_blocks: int, num_stages: int) -> int:
    """C(n-1, p-1): the size of the search space the heuristic avoids."""
    _check_cut(num_blocks, num_stages)
    return math.comb(num_blocks - 1, num_stages - 1)


class _SearchState:
    """Incumbent tracking with brute-force-identical argmin semantics.

    The brute force keeps the lexicographically-first candidate achieving
    the minimum (strict ``<`` update in enumeration order).  The pruned
    search may evaluate a seed or climb candidate out of order, so the
    update rule here breaks time ties toward the lexicographically
    smaller ``sizes`` tuple — equivalent to the brute force's rule for
    any evaluation order that covers the same candidates.

    ``best_time`` is also the value the pruning tests compare against:
    it is a *simulated* candidate time, so any subtree whose lower bound
    exceeds it holds only candidates provably worse than the final
    optimum (ties always survive because the prune test requires
    ``lb > best_time * slack``).
    """

    __slots__ = (
        "best_time", "best_sizes", "evaluations", "dominance_pruned",
        "incumbent_updates",
    )

    def __init__(self) -> None:
        self.best_time = float("inf")
        self.best_sizes: Optional[Tuple[int, ...]] = None
        self.evaluations = 0
        self.dominance_pruned = 0
        self.incumbent_updates = 0

    def offer(self, sizes: Tuple[int, ...], t: float) -> None:
        if t < self.best_time or (
            t == self.best_time and sizes < self.best_sizes
        ):
            self.best_time = t
            self.best_sizes = sizes
            self.incumbent_updates += 1


def _left_sum(values: Sequence[float]) -> float:
    """Plain left-to-right float sum.

    Every search path sums stage costs in this one order: the ``cumsum``
    slice tables of the pruned searches run the same fold.  The built-in
    ``sum`` is not used because from Python 3.12 it compensates float
    rounding, which can move a stage cost of three or more blocks by an
    ulp.
    """
    acc = 0.0
    for x in values:
        acc += x
    return acc


def _stage_sums(
    fwd: Sequence[float], bwd: Sequence[float], sizes: Sequence[int]
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Left-to-right per-stage slice sums (the brute force's summation)."""
    f_stages: List[float] = []
    b_stages: List[float] = []
    pos = 0
    for size in sizes:
        f_stages.append(_left_sum(fwd[pos:pos + size]))
        b_stages.append(_left_sum(bwd[pos:pos + size]))
        pos += size
    return tuple(f_stages), tuple(b_stages)


def _search_brute(
    fwd: Sequence[float],
    bwd: Sequence[float],
    comm: float,
    num_stages: int,
    num_micro_batches: int,
    comm_mode: str,
    state: _SearchState,
) -> None:
    """The literal brute force: one scalar simulation per candidate."""
    n = len(fwd)
    for sizes in iter_partitions(n, num_stages):
        f_stages, b_stages = _stage_sums(fwd, bwd, sizes)
        sim = PipelineSim(
            StageTimes(f_stages, b_stages, comm), num_micro_batches,
            comm_mode=comm_mode,
        ).run()
        state.evaluations += 1
        state.offer(sizes, sim.iteration_time)


def _search_robust(
    fwd: Sequence[float],
    bwd: Sequence[float],
    comm: float,
    num_stages: int,
    num_micro_batches: int,
    comm_mode: str,
    state: _SearchState,
    robust: RobustObjective,
) -> None:
    """Robust oracle specification: chunked batched brute force.

    The ``prune=False`` robust path and the reference the robust
    :func:`_search_analytic` is property-tested against: it
    enumerates every candidate and evaluates whole chunks of them under
    all ``K`` draws through one ``(C*K, n)`` frontier sweep
    (:func:`~repro.robustness.evaluate.robust_objective_batch`).  Chunks
    are sized so the batch stays near :data:`_DEFAULT_CHUNK` *rows*
    (candidates x draws), bounding peak memory.  ``offer`` runs per candidate in
    enumeration order, so the argmin semantics (first lexicographic
    candidate achieving the minimum objective) match the nominal brute
    force's.
    """
    factors = robust.factors(num_stages)
    cand_chunk = max(1, _DEFAULT_CHUNK // factors.draws)
    candidates = iter_partitions(len(fwd), num_stages)
    tel = _obs.current()
    while True:
        chunk = list(itertools.islice(candidates, cand_chunk))
        if not chunk:
            return
        costs = [_stage_sums(fwd, bwd, sizes) for sizes in chunk]
        t_f = tel.clock() if tel is not None else 0
        values = robust_objective_batch(
            np.array([f for f, _ in costs]), np.array([b for _, b in costs]),
            comm, num_micro_batches, factors, robust.statistic,
            comm_mode=comm_mode,
        )
        state.evaluations += len(chunk)
        for sizes, v in zip(chunk, values.tolist()):
            state.offer(sizes, v)
        if tel is not None:
            tel.record_since(
                "oracle.chunk_flush", t_f,
                rows=len(chunk), draws=factors.draws,
            )


def _slice_sum_tables(
    fwd: Sequence[float], bwd: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Left-fold slice sums ``S[pos, size - 1]`` of both cost vectors.

    ``cumsum`` runs the same sequential accumulation as the brute
    force's per-``pos`` fold, so every entry is bitwise the stage cost
    :func:`_stage_sums` gives a stage of ``size`` blocks from ``pos``
    (entries past the last block are padding).
    """
    n = len(fwd)
    src = np.arange(n)[:, None] + np.arange(n)[None, :]
    in_range = src < n
    src = np.minimum(src, n - 1)
    SF = np.where(in_range, np.asarray(fwd, dtype=np.float64)[src], 0.0)
    SB = np.where(in_range, np.asarray(bwd, dtype=np.float64)[src], 0.0)
    np.cumsum(SF, axis=1, out=SF)
    np.cumsum(SB, axis=1, out=SB)
    return SF, SB


class _Objective:
    """What the analytic search minimises, scored as kernel columns.

    Nominal (``robust=None``): a candidate's iteration time, one kernel
    column per candidate (``draws == 1``, no factors).  Robust: the
    objective's statistic over its ``D`` perturbation draws.  A
    candidate is then ``D`` adjacent kernel columns, draw ``d`` costing
    ``factor * stage cost`` on each stage with comm ``comm_d[d]``: the
    operands :func:`~repro.robustness.evaluate.robust_objective_batch`
    multiplies, reduced the same way, so every value is bitwise the one
    :func:`_search_robust` scores.
    """

    def __init__(
        self,
        comm: float,
        num_micro_batches: int,
        comm_mode: str,
        robust: Optional[RobustObjective],
        num_stages: int,
    ) -> None:
        self.m = num_micro_batches
        self.comm_mode = comm_mode
        self.statistic = None if robust is None else robust.statistic
        self.draws = 1
        #: stage-major ``(p, D)`` fwd / bwd factors (None when nominal).
        self.ff = self.fb = None
        #: per-draw comm: ``comm`` itself when nominal, else ``(D,)``.
        self.comm = self.comm_d = comm
        if robust is not None:
            self.factors = robust.factors(num_stages)
            self.draws = self.factors.draws
            self.ff = np.ascontiguousarray(self.factors.fwd.T)
            self.fb = np.ascontiguousarray(self.factors.bwd.T)
            self.comm_d = self.factors.comm * comm

    def reduce(self, per_draw: np.ndarray) -> np.ndarray:
        """The objective of per-draw values (draws on the last axis; a
        nominal array has no draw axis and is returned as is)."""
        if self.statistic is None:
            return per_draw
        return reduce_statistic(per_draw, self.statistic, axis=-1)

    def score(self, f_t: np.ndarray, b_t: np.ndarray) -> np.ndarray:
        """Objective values of the candidates in the stage-major
        ``(p, C)`` cost matrices, one per column."""
        if self.ff is None:
            return frontier_times_transposed(
                f_t, b_t, self.comm_d, self.m, comm_mode=self.comm_mode,
            )
        p, cols = f_t.shape
        d = self.draws
        pf = (f_t[:, :, None] * self.ff[:, None, :]).reshape(p, cols * d)
        pb = (b_t[:, :, None] * self.fb[:, None, :]).reshape(p, cols * d)
        times = frontier_times_transposed(
            pf, pb, self.factors.kernel_comm(self.comm, cols),
            self.m, comm_mode=self.comm_mode,
        )
        return self.reduce(times.reshape(cols, d))


class _Bounds:
    """Lower bounds on the iteration time of partial assignments.

    Both comm modes charge at least ``Comm`` on every cross-stage
    dependency edge, which the edges-mode bounds below count.  Paper
    mode (the recurrence of :mod:`repro.core.analytic_sim`) also adds
    ``Comm`` to every FP off stage 0 and every BP off the last stage,
    own-stage predecessor or not, so each FP/BP pair of stage ``x``
    pays ``c_x = [x > 0] + [x < p-1]`` of them; the paper-mode bounds
    add those (``docs/search.md``, "Pruning bounds").  With ``m``
    micro-batches and stage loads ``w_x = f_x + b_x``:

    * **straggler bound** — for any stage ``x``, micro-batch 0's forward
      must reach it (``sum_{y<x} f_y + x*Comm``), its 2m intra-chained
      ops need ``m * w_x``, and micro-batch m-1's backward must return
      to stage 0 (``sum_{y<x} b_y + x*Comm``); so
      ``T >= prefixW(x) + 2*x*Comm + m*w_x``.  Paper mode adds
      ``(m*c_x - [x > 0])*Comm``: the chain's own charges, less the one
      on micro-batch 0's FP that the forward hop already counts.
    * **max-stage-load relaxation** for the unassigned suffix: any
      completion of blocks ``pos..n-1`` into ``k`` stages has some stage
      with load ``>= minmax(pos, k)`` — the min-max DP value of the
      suffix, precomputed for every ``(pos, k)`` — so
      ``T >= prefixW(pos) + 2*s*Comm + m * minmax(pos, k)``.
    * **round-trip + tail bound** — micro-batch 0's backward reaches
      stage ``x`` no earlier than the full forward sweep plus the
      backward sweep up from the last stage
      (``sum_f + (p-1)*Comm + sum_{y>=x} b_y + (p-1-x)*Comm``); stage
      ``x`` then still owes its remaining 1F1B pairs and cooldown
      (:meth:`tail`), and micro-batch m-1's backward must return to
      stage 0 (``prefixB(x) + x*Comm``).  Summing:
      ``T >= W_total + 2*(p-1)*Comm + tail(x)``.  For the unassigned
      suffix of ``k`` stages the relaxation
      ``tail >= (m - k) * minmax(pos, k)`` applies when ``m >= k``.
      In paper mode :meth:`tail` includes the ``Comm`` its ops pay.

    **Per-draw bounds.**  Given an :class:`_Objective` with factors,
    every bound is taken per draw on the perturbed costs, with a
    trailing draw axis.  Stage ``s`` is always stage index ``s``, so a
    stage of known blocks costs exactly ``factor[s, d] * cost``.  The
    path-dependent sums are bounded below instead: ``prefixW``,
    ``W_total`` and the suffix ``minmax`` each take the smallest fwd or
    bwd factor among the stages their blocks can occupy (:meth:`low`;
    factors are > 0).  Mean, P95 and max are each non-decreasing in
    every draw, so the statistic of per-draw lower bounds is a lower
    bound on the objective.

    Everything here is a pure function of ``(fwd, bwd, comm, p, m)``
    and the factors: the prefix sums, the min-max suffix DP, the exact
    left-fold slice tables ``SF``/``SB`` (:func:`_slice_sum_tables`) and
    the bound of every last stage (``leaf_lb``, a function of its start
    ``pos`` only; ``inf`` at ``pos = n``, where no block is left for
    it).  Float prefix sums drive the *bounds* only; candidate
    stage times always come from the slice tables, the brute force's
    summation.
    """

    def __init__(
        self,
        fwd: Sequence[float],
        bwd: Sequence[float],
        comm: float,
        num_stages: int,
        num_micro_batches: int,
        comm_mode: str,
        objective: Optional[_Objective] = None,
    ) -> None:
        n = len(fwd)
        p = num_stages
        m = num_micro_batches
        self._p = p
        self._m = m
        self._paper = comm_mode == "paper"
        weights = np.add(fwd, bwd, dtype=np.float64)
        prefw = np.zeros(n + 1)
        np.cumsum(weights, out=prefw[1:])
        self.prefw = prefw
        # minmax[k][pos]: smallest achievable max stage load when
        # splitting blocks pos..n-1 into k stages (inf where infeasible),
        # one (pos, end) grid per k:
        #   minmax[k][pos] = min over end > pos of
        #                    max(head(pos, end), minmax[k-1][end])
        # with head(pos, end) = prefw[end] - prefw[pos].  min and max
        # never round, so this is exact over the same heads.
        inf = float("inf")
        pos_col = np.arange(n + 1)[:, None]
        end_row = np.arange(1, n + 1)[None, :]
        head = np.where(
            end_row > pos_col, prefw[None, 1:] - prefw[:, None], inf,
        )
        minmax = np.full((p + 1, n + 1), inf)
        minmax[1, :n] = prefw[n] - prefw[:n]
        for k in range(2, p + 1):
            minmax[k] = np.maximum(head, minmax[k - 1, 1:]).min(axis=1)
        self.minmax = minmax
        self.SF, self.SB = _slice_sum_tables(fwd, bwd)

        self.ff = self.fb = None
        self.comm_d = comm
        if objective is not None and objective.ff is not None:
            self.ff, self.fb = objective.ff, objective.fb
            self.comm_d = objective.comm_d
            # Smallest factor per draw over stages ``[0, s)`` (``pre``)
            # and ``[s, p)`` (``suf``); 1 where the range is empty.
            lowest = np.minimum(self.ff, self.fb)
            self.pre = np.ones((p + 1, lowest.shape[1]))
            self.suf = np.ones((p + 1, lowest.shape[1]))
            np.minimum.accumulate(lowest, axis=0, out=self.pre[1:])
            np.minimum.accumulate(
                lowest[::-1], axis=0, out=self.suf[p - 1::-1],
            )
        #: round-trip constant of the tail bound.
        self.base_rt = (
            self.low(float(prefw[n]), "pre", p) + 2 * (p - 1) * self.comm_d
        )

        # Leaf bounds: the last stage always starts at ``s = p - 1`` and
        # spans ``pos..n-1``, so its bound is a pure function of ``pos``.
        q = np.arange(n)
        #: left-fold cost of blocks ``pos..n-1`` (the last stage's cost).
        self.suf_f = self.SF[q, n - q - 1]
        self.suf_b = self.SB[q, n - q - 1]
        f_sum, b_sum = self.stage(
            p - 1, self.suf_f[p - 1:], self.suf_b[p - 1:],
        )
        leaf_lb = np.full((n + 1,) + np.shape(self.comm_d), inf)
        leaf_lb[p - 1:n] = np.maximum(
            self.low(prefw[p - 1:n], "pre", p - 1)
            + self.reach_comm(p - 1) * self.comm_d + m * (f_sum + b_sum),
            self.base_rt + self.tail(p - 1, f_sum + b_sum, b_sum),
        )
        self.leaf_lb = leaf_lb

    def stage(self, s: int, f: np.ndarray, b: np.ndarray):
        """Costs ``f``/``b`` as stage ``s``'s, per draw (as is when
        nominal)."""
        if self.ff is None:
            return f, b
        return f[..., None] * self.ff[s], b[..., None] * self.fb[s]

    def low(self, load, table: str, s: int):
        """Lower bound on a path-dependent load, per draw: its nominal
        value times the smallest factor of stages ``[0, s)``
        (``table="pre"``) or ``[s, p)`` (``"suf"``); as is when
        nominal."""
        if self.ff is None:
            return load
        return np.multiply.outer(load, getattr(self, table)[s])

    def level(
        self, s: int, cells: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The per-draw bounds of stages on level ``s < p - 1``.

        ``fixb``: the own straggler and round-trip + tail bounds of the
        stages at ``cells`` (flat ``pos * n + size - 1`` indices), one
        row per cell.  ``remb[pos2]``: the suffix relaxation of blocks
        ``pos2..n-1`` after a stage, merged with the leaf bound when one
        stage remains.  Both hold for every candidate through the stage,
        whatever its other stages.
        """
        n = self.SF.shape[0]
        p, m = self._p, self._m
        f_s, b_s = self.stage(
            s, self.SF.ravel().take(cells), self.SB.ravel().take(cells),
        )
        base = (
            self.low(self.prefw.take(cells // n), "pre", s)
            + self.reach_comm(s) * self.comm_d
        )
        load = f_s + b_s
        fixb = m * load
        fixb += base
        rt = self.tail(s, load, b_s)
        rt += self.base_rt
        np.maximum(fixb, rt, out=fixb)
        rem = p - s - 1
        mm = self.low(self.minmax[rem], "suf", s + 1)
        remb = (
            self.low(self.prefw, "pre", s + 1) + 2 * (s + 1) * self.comm_d
        ) + m * mm
        if m > rem:
            np.maximum(remb, self.base_rt + (m - rem) * mm, out=remb)
        if rem == 1:
            np.maximum(remb, self.leaf_lb, out=remb)
        return fixb, remb

    def pair_comm(self, stage: int) -> int:
        """``Comm`` charges per FP/BP pair of stage ``stage`` on its own
        chain: ``c_x = [x > 0] + [x < p-1]`` in paper mode, none in
        edges mode."""
        if not self._paper:
            return 0
        return (stage > 0) + (stage < self._p - 1)

    def reach_comm(self, stage: int) -> int:
        """``Comm`` count of stage ``stage``'s straggler bound: ``2x``
        hops there and back, and in paper mode its chain's
        ``m*c_x - [x > 0]`` own charges."""
        count = 2 * stage
        if self._paper:
            count += self._m * self.pair_comm(stage) - (stage > 0)
        return count

    def tail(self, stage: int, load, b_sum):
        """Work stage ``stage`` still owes after micro-batch 0 returns.

        ``(s - 1)*(f + b) + w*b`` with ``w = min(m, p-1-stage)`` warmup
        depth and ``s = m - w`` steady pairs, or ``(m-1)*b`` when
        ``s = 0``; ``load`` is the stage's ``f + b``.  In paper mode
        those ops' own charges add ``((s-1)*c_x + w*[x < p-1])*Comm``,
        or ``(m-1)*[x < p-1]*Comm`` when ``s = 0``.
        """
        m = self._m
        w_cnt = min(m, self._p - 1 - stage)
        steady = m - w_cnt
        bwd_comm = int(self._paper and stage < self._p - 1)
        if steady >= 1:
            owed = (steady - 1) * load + w_cnt * b_sum
            count = (steady - 1) * self.pair_comm(stage) + w_cnt * bwd_comm
        else:
            owed = (m - 1) * b_sum
            count = (m - 1) * bwd_comm
        if count:
            owed = owed + count * self.comm_d
        return owed


def _score_and_offer(
    objective: _Objective,
    state: _SearchState,
    f_t: np.ndarray,
    b_t: np.ndarray,
    sizes_of: Callable[[int], Tuple[int, ...]],
) -> np.ndarray:
    """Score the candidates of the stage-major cost matrices in one
    sweep, count them, offer their minimum and return their objective
    values.

    Ties at the minimum go to the lexicographically smallest sizes
    (``sizes_of(j)`` is column ``j``'s), so ``offer`` sees the brute
    force's choice among them whatever order the columns come in.
    """
    values = objective.score(f_t, b_t)
    state.evaluations += values.size
    vmin = values.min()
    state.offer(
        min(map(sizes_of, np.flatnonzero(values == vmin).tolist())),
        float(vmin),
    )
    return values


def _offer_sizes(
    objective: _Objective,
    SF: np.ndarray,
    SB: np.ndarray,
    cand: List[Tuple[int, ...]],
    state: _SearchState,
) -> np.ndarray:
    """:func:`_score_and_offer` of the candidates ``cand`` (stage
    sizes), their stage costs read from the left-fold slice tables."""
    n = SF.shape[0]
    sizes = np.array(cand, dtype=np.int64)
    cell = ((np.cumsum(sizes, axis=1) - sizes) * n + sizes - 1).T
    return _score_and_offer(
        objective, state, SF.ravel().take(cell), SB.ravel().take(cell),
        cand.__getitem__,
    )


def _seed_climb(
    bounds: _Bounds,
    objective: _Objective,
    state: _SearchState,
    seed: Tuple[int, ...],
) -> Set[Tuple[int, ...]]:
    """Score ``seed``, then descend from it over one-block transfers.

    A move takes one block from stage ``i`` to stage ``j != i``; the
    stages between them shift by a block and keep their sizes.  Each
    round builds every valid move of the incumbent not yet scored (at
    most ``p * (p - 1)`` columns) from the exact left-fold slice tables
    ``SF``/``SB``, scores them with one :meth:`_Objective.score` call
    (one kernel sweep) and offers the round's minimum (ties to the
    lexicographically smallest sizes).  The first round scores the seed
    in the same sweep as its moves and must beat the seed's own value.
    The climb stops at the first round that does not strictly improve
    the incumbent.  Every offer is a true candidate time, so the climb
    only tightens the limit the levels are admitted against (on
    gpt2-762m at depth 12, micro-batch 1, the leaf level admits ~3k
    columns instead of ~105k).  Scored columns are counted as
    evaluations and returned, which keeps the leaf sweep from counting
    them again.  Records an ``oracle.climb`` span (``rounds``, and
    ``cols`` the moves scored).
    """
    p = len(seed)
    eye = np.eye(p, dtype=np.int64)
    src, dst = np.nonzero(eye == 0)
    moves = eye[dst] - eye[src]
    tel = _obs.current()
    t_c = tel.clock() if tel is not None else 0
    scored = {seed}
    lead = [seed]
    base = seed
    rounds = cols = 0
    while True:
        sizes = np.asarray(base) + moves
        cand = [
            c for c in map(tuple, sizes[(sizes >= 1).all(axis=1)].tolist())
            if c not in scored
        ]
        if not (lead or cand):
            break
        before = state.best_time
        values = _offer_sizes(
            objective, bounds.SF, bounds.SB, lead + cand, state,
        )
        if lead:
            before = float(values[0])  # the first round must beat the seed
            lead = []
        rounds += 1
        cols += len(cand)
        scored.update(cand)
        base = state.best_sizes
        if not state.best_time < before:
            break
    if tel is not None:
        tel.record_since("oracle.climb", t_c, rounds=rounds, cols=cols)
    return scored


class _Lattice:
    """The analytic search's prefix levels, one stage per level.

    Level ``s`` holds the live prefixes of stages ``0..s`` in
    lexicographic sizes order as parent pointers: per prefix, its
    parent's index on level ``s - 1`` (``parent[s]``) and its last
    stage's cell ``start * n + size - 1`` in the ``(pos, size - 1)``
    grids (``cells[s]``).  Nothing is copied from level to level; stage
    costs are read back up the chain from the exact left-fold slice
    tables (:meth:`_fill`).  ``pos`` is the end position of every live
    prefix.  The last level (``s = p - 2``) holds the leaf columns: the
    last stage is never a level, its size forced by the last cut and its
    costs the per-pos suffix totals.

    ``limit`` (the incumbent when the lattice is made, after the seed
    and climb, times ``_PRUNE_SLACK``) is fixed while the levels are
    built, so whether a stage of ``size`` blocks from ``pos`` is
    admitted on level ``s`` depends only on ``(s, pos, size)``, never on
    the path to it: the cut descent flattens into a vectorized expansion
    over each level's reachable cells.
    """

    def __init__(
        self,
        bounds: _Bounds,
        objective: _Objective,
        state: _SearchState,
    ) -> None:
        n, p = bounds.SF.shape[0], bounds._p
        self.n, self.p = n, p
        self.bounds, self.objective, self.state = bounds, objective, state
        self.limit = state.best_time * _PRUNE_SLACK
        #: candidates per scored chunk: ``_ANALYTIC_BLOCK`` kernel columns.
        self.block = max(1, _ANALYTIC_BLOCK // objective.draws)
        self.SF_flat, self.SB_flat = bounds.SF.ravel(), bounds.SB.ravel()
        self.pos_col = np.arange(n)[:, None]
        self.k_row = np.arange(n)[None, :]
        self.pos2_flat = np.minimum(self.pos_col + self.k_row + 1, n).ravel()
        self.parent: List[np.ndarray] = []
        self.cells: List[np.ndarray] = []
        #: per level, the flat ``(pos, size - 1)`` grid of a stage's own
        #: bounds, one row (of draws) per cell, set where it was reached.
        self.stage_lb: List[np.ndarray] = []
        self.pos = np.zeros(1, dtype=np.int64)
        #: leaf columns not yet scored (set by :meth:`mark_scored`).
        self.fresh: Optional[np.ndarray] = None
        # Twins (equal pos and stage costs, different sizes) first differ
        # in a cut, and the longer of the two stages there folds extra
        # blocks into an equal sum.  A left fold of non-negative costs
        # only grows, so each extra block was absorbed, fwd and bwd
        # alike, by a partial sum no larger than the left-fold total: it
        # costs at most one ulp of twice the total in both.  Without
        # such a block no level has twins, and the memo is skipped.
        f_tol = math.ulp(2 * float(bounds.suf_f[0]))
        b_tol = math.ulp(2 * float(bounds.suf_b[0]))
        self.hash_w = self.comb_tab = self.acc = None
        if np.any((bounds.SF[:, 0] <= f_tol) & (bounds.SB[:, 0] <= b_tol)):
            # comb(a, b) lookup for the dominance counters.
            self.comb_tab = np.array(
                [[math.comb(a, b) if b <= a else 0 for b in range(p)]
                 for a in range(n)],
                dtype=np.int64,
            )
            # Fixed mixing weights of the duplicate gate's hash.
            self.hash_w = (
                np.cos(np.arange(1, 2 * p + 1) * 12.9898) * 43758.5453
            )
            self.acc = np.zeros(1)

    def admit(self, s: int) -> np.ndarray:
        """Flat ``(pos, size - 1)`` cells admitted at level ``s``, in
        row-major order.

        Only the cells the level can reach are bounded: a ``pos`` some
        live prefix ends at, with blocks left for the stages after it.
        A stage is admitted when the statistic of its per-draw bound —
        the max of its own bounds ``fixb`` and the suffix relaxation
        ``remb`` after it (:meth:`_Bounds.level`) — is within the limit.
        ``fixb`` is kept in ``stage_lb``.
        """
        n = self.n
        reach = np.zeros((n, 1), dtype=bool)
        reach[self.pos] = True
        cells = np.flatnonzero(
            reach & (self.k_row < n - self.pos_col - (self.p - s - 1))
        )
        fixb, remb = self.bounds.level(s, cells)
        grid = np.empty((n * n,) + fixb.shape[1:])
        grid[cells] = fixb
        self.stage_lb.append(grid)
        lb = self.objective.reduce(
            np.maximum(fixb, remb.take(self.pos2_flat.take(cells), axis=0))
        )
        return cells[lb <= self.limit]

    def expand(self, s: int, adm: np.ndarray) -> int:
        """Fan level ``s`` out through its admitted cells ``adm`` and
        return how many prefixes that admitted (0: the level is empty).

        ``adm`` is in row-major order, so each pos's admitted sizes come
        out ascending, and ``repeat`` keeps each parent's children
        together: the level lands in lex order with no sort.

        **Dominance memo.**  A prefix is characterised by ``(pos,
        f_stages, b_stages)``: every candidate below it only extends
        those stage times.  When two prefixes agree on it, the
        lexicographically smaller twin covers every candidate the other
        could contribute with an identical objective (stage ``s`` has the
        same factors in both), and wins any tie.  Levels are in lex
        order, so ``np.unique``'s first occurrence is that twin; it is
        kept, and each removed subtree counts its ``C(n-pos-1, p-s-2)``
        leaves in ``dominance_pruned``.  The memo runs only where some
        block costs at most one ulp of twice the model's totals (a
        zero-cost block, in practice).  Its gate is a hash of the stage
        costs, folded in from the parent's hash one stage per level in
        the same order for every prefix, so twins hash bit-equal; the
        exact key rows are rebuilt from the parent pointers only on a
        level where two hashes collide.
        """
        n, p, pos = self.n, self.p, self.pos
        W = np.bincount(adm // n, minlength=n)
        W_col = W.take(pos)
        total = int(W_col.sum())
        if total == 0:
            return 0
        # Child j of parent r takes entry ``OFF[pos_r] + j -
        # first_child[r]`` of the grid's flattened admitted sizes.
        shift = (np.cumsum(W) - W).take(pos) - (np.cumsum(W_col) - W_col)
        til = (adm % n).take(np.arange(total) + shift.repeat(W_col))
        rep = np.arange(pos.size).repeat(W_col)
        prow = pos.repeat(W_col)
        cell = prow * n + til
        self.parent.append(rep)
        self.cells.append(cell)
        self.pos = pos = prow + til + 1
        if self.hash_w is None or s == p - 2:
            return total
        acc = self.acc.take(rep) + self.hash_w[s] * self.SF_flat.take(cell)
        acc += self.hash_w[p + s] * self.SB_flat.take(cell)
        self.acc = acc
        live = pos.size
        if live > 1 and np.unique(acc + pos).size < live:
            key = np.empty((2 * s + 3, live))
            key[0] = pos
            self._fill(np.arange(live), s, key[1:s + 2], key[s + 2:])
            _, first_idx, counts = np.unique(
                np.ascontiguousarray(key.T), axis=0,
                return_index=True, return_counts=True,
            )
            if first_idx.size < live:
                dup = counts > 1
                self.state.dominance_pruned += int(np.sum(
                    (counts[dup] - 1)
                    * self.comb_tab[n - pos[first_idx[dup]] - 1, p - s - 2]
                ))
                keep = np.sort(first_idx)
                self.parent[s] = rep[keep]
                self.cells[s] = cell[keep]
                self.pos = pos[keep]
                self.acc = acc[keep]
        return total

    def mark_scored(self, scored: Set[Tuple[int, ...]]) -> None:
        """Set ``fresh``: every leaf column but those of the candidates
        ``scored`` (the seed and climb columns), which :meth:`score`
        skips.

        They are walked down the levels all at once: within a level,
        ``parent * n*n + cell`` is strictly increasing (lex order), so a
        binary search finds each one's child.  A column whose twin
        subtree was dominance-pruned correctly counts as a fresh column
        under the surviving twin's sizes.
        """
        n, p = self.n, self.p
        seen = np.array(list(scored), dtype=np.int64).reshape(-1, p)
        want = (np.cumsum(seen, axis=1) - seen) * n + seen - 1
        walk = np.zeros(len(seen), dtype=np.int64)
        found = np.ones(len(seen), dtype=bool)
        for s in range(p - 1):
            key = self.parent[s] * (n * n) + self.cells[s]
            target = walk * (n * n) + want[:, s]
            walk = np.minimum(np.searchsorted(key, target), key.size - 1)
            found &= key.take(walk) == target
        self.fresh = np.ones(self.pos.size, dtype=bool)
        self.fresh[walk[found]] = False

    def leaf_bounds(self) -> np.ndarray:
        """One lower bound per leaf column: the statistic of the
        per-draw max of its stages' own bounds (the ``stage_lb`` grids)
        and its last stage's ``leaf_lb``.  Taking the max per draw before
        reducing gives the tighter bound.  The max is gathered up the
        parent pointers a chunk of columns at a time, so only one
        chunk's per-draw bounds are held at once."""
        lb = np.empty(self.pos.size)
        for c0 in range(0, lb.size, self.block):
            c1 = c0 + self.block
            i = np.arange(c0, min(c1, lb.size))
            run = self.bounds.leaf_lb.take(self.pos[c0:c1], axis=0)
            for s in range(self.p - 2, -1, -1):
                np.maximum(
                    run, self.stage_lb[s].take(self.cells[s].take(i), axis=0),
                    out=run,
                )
                if s:
                    i = self.parent[s].take(i)
            lb[c0:c1] = self.objective.reduce(run)
        return lb

    def score(self, cols: np.ndarray) -> None:
        """Score the ``fresh`` leaf columns among ``cols``, a chunk of
        ``block`` columns per kernel sweep.

        Each chunk is assembled into stage-major ``(p, chunk)`` cost
        buffers by walking the parent pointers into the slice tables
        (:meth:`_fill`), so every column is bitwise the brute force's
        stage-time vector, then scored and offered
        (:func:`_score_and_offer`).  Every chunk records an
        ``oracle.kernel_sweep`` span with its ``cols``, ``kept`` (the
        fresh columns swept) and ``draws``.
        """
        p, tel = self.p, _obs.current()
        for c0 in range(0, cols.size, self.block):
            t_f = tel.clock() if tel is not None else 0
            chunk = cols[c0:c0 + self.block]
            idx = chunk[self.fresh.take(chunk)]
            if idx.size:
                f_t = np.empty((p, idx.size))
                b_t = np.empty((p, idx.size))
                self._fill(idx, p - 2, f_t, b_t)
                # The forced last stage costs the per-pos suffix total.
                leaf_pos = self.pos.take(idx)
                self.bounds.suf_f.take(leaf_pos, out=f_t[p - 1])
                self.bounds.suf_b.take(leaf_pos, out=b_t[p - 1])
                _score_and_offer(
                    self.objective, self.state, f_t, b_t,
                    lambda j: self.sizes(idx[j]),
                )
            if tel is not None:
                tel.record_since(
                    "oracle.kernel_sweep", t_f, cols=int(chunk.size),
                    kept=int(idx.size), draws=self.objective.draws,
                )

    def sizes(self, c: int) -> Tuple[int, ...]:
        """Stage sizes of leaf column ``c``, read up the parent chain."""
        n = self.n
        sizes = [n - int(self.pos[c])]
        for s in range(self.p - 2, -1, -1):
            sizes.append(int(self.cells[s][c]) % n + 1)
            c = int(self.parent[s][c])
        return tuple(reversed(sizes))

    def _fill(self, i: np.ndarray, top: int, f_out, b_out) -> None:
        """Write the stage costs of level-``top`` prefixes ``i`` into
        rows ``0..top`` of the stage-major ``f_out`` / ``b_out``."""
        for s in range(top, -1, -1):
            cell = self.cells[s].take(i)
            self.SF_flat.take(cell, out=f_out[s])
            self.SB_flat.take(cell, out=b_out[s])
            if s:
                i = self.parent[s].take(i)


def _lowest(lb: np.ndarray, k: int) -> np.ndarray:
    """Sorted indices of the ``k`` lowest bounds in ``lb``, ties at the
    cut taken in index (lex) order."""
    cut = np.partition(lb, k - 1)[k - 1]
    below = np.flatnonzero(lb < cut)
    # Disjoint sorted index sets: their sorted concatenation is the
    # union (``np.union1d`` imports ``numpy.ma`` on first use).
    return np.sort(np.concatenate(
        (below, np.flatnonzero(lb == cut)[:k - below.size])
    ))


def _search_analytic(
    fwd: Sequence[float],
    bwd: Sequence[float],
    comm: float,
    num_stages: int,
    num_micro_batches: int,
    comm_mode: str,
    state: _SearchState,
    robust: Optional[RobustObjective] = None,
) -> None:
    """Branch-and-bound scored by the closed-form max-plus kernel.

    It minimises an :class:`_Objective` (the iteration time, or the
    ``robust`` statistic over ``D`` draws); a robust space no wider than
    the probe is scored whole in one sweep.  Otherwise the Algorithm-1
    seed is scored first, with a :func:`_seed_climb` from it on spaces
    of at least :data:`_CLIMB_MIN_SPACE` candidates, and a
    :class:`_Lattice` admits and expands one level per stage (an
    ``oracle.level`` span each, with its ``admitted`` and live
    ``prefixes``).  Then the probe: the ``_PROBE_COLS // D``
    lowest-bound leaf columns are scored first, to tighten the
    incumbent.  Then the filter, the one exact filter at the leaf level:
    only the other columns whose bound is within ``best * _PRUNE_SLACK``
    are scored, in lex order.  A dropped column's bound exceeds a scored
    value, so it is neither the optimum nor a tie.  An ``oracle.probe``
    span records the probe's ``cols``, the filter's ``survivors`` and
    the incumbent before and after the probe.
    """
    n, p, m = len(fwd), num_stages, num_micro_batches
    objective = _Objective(comm, m, comm_mode, robust, p)
    k = max(1, _PROBE_COLS // objective.draws)
    space = math.comb(n - 1, p - 1)
    if objective.ff is not None and space <= k:
        # The probe would score every candidate anyway: do so in one
        # sweep, without bounds or a seed sweep of its own.
        SF, SB = _slice_sum_tables(fwd, bwd)
        _offer_sizes(objective, SF, SB, list(iter_partitions(n, p)), state)
        return
    bounds = _Bounds(fwd, bwd, comm, p, m, comm_mode, objective)
    seed = tuple(min_max_partition([f + b for f, b in zip(fwd, bwd)], p))
    if space >= _CLIMB_MIN_SPACE:
        scored = _seed_climb(bounds, objective, state, seed)
    else:
        _offer_sizes(objective, bounds.SF, bounds.SB, [seed], state)
        scored = {seed}
    if p == 1:
        return  # the single candidate is the Algorithm-1 seed itself.
    lattice = _Lattice(bounds, objective, state)
    tel = _obs.current()
    for s in range(p - 1):
        t_l = tel.clock() if tel is not None else 0
        admitted = lattice.expand(s, lattice.admit(s))
        if not admitted:
            return  # every subtree exceeds the seed bound: it stands.
        if tel is not None:
            tel.record_since(
                "oracle.level", t_l, level=s, admitted=admitted,
                prefixes=int(lattice.pos.size),
            )
    lattice.mark_scored(scored)

    t_p = tel.clock() if tel is not None else 0
    before = state.best_time
    leaves = np.arange(lattice.pos.size)
    lb = lattice.leaf_bounds() if leaves.size > k else None
    probe = leaves if lb is None else _lowest(lb, k)
    lattice.score(probe)
    survivors = leaves[:0]
    if lb is not None:
        within = lb <= state.best_time * _PRUNE_SLACK
        within[probe] = False
        survivors = np.flatnonzero(within)
        del lb, within
    if tel is not None:
        tel.record_since(
            "oracle.probe", t_p, cols=int(probe.size),
            survivors=int(survivors.size), incumbent_before=before,
            incumbent_after=state.best_time,
        )
    lattice.score(survivors)


def exhaustive_partition(
    profile: ModelProfile,
    num_stages: int,
    num_micro_batches: int,
    *,
    comm_mode: str = "paper",
    max_evaluations: Optional[int] = 2_000_000,
    prune: bool = True,
    robust: Optional[RobustObjective] = None,
    jobs: int = 1,
    cache: bool = False,
) -> ExhaustiveResult:
    """Find the optimal partition over every contiguous candidate.

    ``prune=True`` (default) runs the branch-and-bound search scored by
    the max-plus frontier kernel (:func:`_search_analytic`), which
    discards a subtree only when its lower bound exceeds the incumbent
    by more than the slack :data:`_PRUNE_SLACK` (``1 + 1e-9``, for float
    rounding); ``prune=False`` runs the literal scalar brute force.
    Both return the identical partition and iteration time.
    ``num_stages`` and ``num_micro_batches`` must be integers ``>= 1``
    (``TypeError`` for a bool or non-integral value, ``ValueError``
    below 1), and so must ``max_evaluations`` unless it is ``None``.
    Raises ``ValueError`` if the search space exceeds
    ``max_evaluations`` (pass ``None`` to force it anyway).

    ``robust`` replaces the objective with a
    :class:`~repro.robustness.evaluate.RobustObjective`: the oracle
    returns the first lexicographic partition minimising the configured
    statistic of the simulated iteration time over the objective's
    perturbation draws.  ``prune=True`` runs the same branch-and-bound
    with every bound taken per draw and reduced with the statistic
    (valid, as mean, P95 and max are monotone in every draw);
    ``prune=False`` enumerates the full space in chunks (the
    specification).  Both return the identical partition and objective
    value, reported as ``ExhaustiveResult.robust_value``; ``sim`` stays
    the winner's *nominal* simulation.

    The search runs in the calling process and every call searches:
    ``jobs`` accepts only ``1`` (``ValueError`` for another integer) and
    ``cache`` only ``False``; a wrong type of ``jobs``, ``cache`` or
    ``prune`` (a bool) raises ``TypeError``.

    With a :mod:`repro.obs` registry current (``obs.session`` or the
    CLI's ``--telemetry``), the call records an ``oracle.search`` span
    and the ``oracle.*`` counters.  Telemetry only reads clocks and
    counters, so every answer and tie-break is bit-identical with or
    without a registry (property-tested); with none, it costs <2% on
    the depth-8 oracle bench (``benchmarks/test_bench_telemetry.py``).
    """
    num_stages = _checks.count("num_stages", num_stages)
    num_micro_batches = _checks.count("num_micro_batches", num_micro_batches)
    if max_evaluations is not None:
        max_evaluations = _checks.count("max_evaluations", max_evaluations)
    prune = _checks.flag("prune", prune)
    _checks.removed_keywords(jobs, cache)
    RobustObjective.check(robust)
    tel = _obs.current()
    t0 = tel.clock() if tel is not None else 0
    result = _exhaustive_impl(
        profile, num_stages, num_micro_batches, comm_mode=comm_mode,
        max_evaluations=max_evaluations, prune=prune, robust=robust,
    )
    if tel is not None:
        tel.record_since(
            "oracle.search", t0,
            mode=("analytic" if prune else "brute") if robust is None
            else ("robust" if prune else "robust_brute"),
            depth=num_stages, m=num_micro_batches, space=result.space,
        )
        # Counters fold from the result's own fields, so the registry
        # and the ExhaustiveResult can never disagree.
        tel.add("oracle.searches", 1)
        for field in (
            "evaluations", "search_seconds", "space", "dominance_pruned",
            "pruned", "incumbent_updates",
        ):
            tel.add(f"oracle.{field}", getattr(result, field))
    return result


def _exhaustive_impl(
    profile: ModelProfile,
    num_stages: int,
    num_micro_batches: int,
    *,
    comm_mode: str,
    max_evaluations: Optional[int],
    prune: bool,
    robust: Optional[RobustObjective],
) -> ExhaustiveResult:
    """The oracle search body; ``exhaustive_partition`` wraps it."""
    n = profile.num_blocks
    space = count_partitions(n, num_stages)
    if max_evaluations is not None and space > max_evaluations:
        raise ValueError(
            f"search space C({n - 1},{num_stages - 1}) = {space} exceeds "
            f"max_evaluations={max_evaluations}"
        )
    t0 = _time.perf_counter()
    fwd = profile.fwd_times()
    bwd = profile.bwd_times()
    comm = profile.comm_time

    state = _SearchState()
    if prune:
        _search_analytic(
            fwd, bwd, comm, num_stages, num_micro_batches, comm_mode,
            state, robust,
        )
    elif robust is not None:
        _search_robust(
            fwd, bwd, comm, num_stages, num_micro_batches, comm_mode,
            state, robust,
        )
    else:
        _search_brute(
            fwd, bwd, comm, num_stages, num_micro_batches, comm_mode,
            state,
        )
    assert state.best_sizes is not None
    f_stages, b_stages = _stage_sums(fwd, bwd, state.best_sizes)
    best_sim = PipelineSim(
        StageTimes(f_stages, b_stages, comm), num_micro_batches,
        comm_mode=comm_mode,
    ).run()
    return ExhaustiveResult(
        partition=PartitionScheme.from_sizes(state.best_sizes),
        sim=best_sim,
        evaluations=state.evaluations,
        search_seconds=_time.perf_counter() - t0,
        space=space,
        dominance_pruned=state.dominance_pruned,
        robust_value=state.best_time if robust is not None else None,
        incumbent_updates=state.incumbent_updates,
    )
