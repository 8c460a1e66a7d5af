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

``robust=`` objectives run their own exact search: a per-draw straggler
bound, reduced with the objective's statistic, orders the candidates and
prunes all but a few percent of them (:func:`_search_robust_pruned`);
``prune=False`` keeps the literal enumeration (:func:`_search_robust`).
"""

from __future__ import annotations

import itertools
import math
import time as _time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.analytic_sim import PipelineSim, SimResult
from repro.core.balance_dp import min_max_partition
from repro.core.partition import PartitionScheme, StageTimes
from repro.core.planner import _check_count, _check_jobs
from repro.obs import stats as _stats
from repro.obs import telemetry as _obs
from repro.profiling.modelconfig import ModelProfile
from repro.robustness.evaluate import (
    RobustObjective,
    reduce_statistic,
    robust_objective_batch,
)
from repro.robustness import evaluate as _robust_eval

#: relative slack on the pruning test: a subtree is discarded only when
#: its lower bound exceeds the incumbent by more than this factor, so
#: float rounding in the prefix-sum bounds (~1e-14 relative) can never
#: prune the true optimum or a tie the brute force would have kept.
#: The searches read it at call time (tests patch it).
_PRUNE_SLACK = 1.0 + 1e-9

#: kernel rows (candidates x draws) per robust scoring chunk: the
#: enumeration's flush size and the bound-pruned search's first sweep.
_DEFAULT_CHUNK = 1024

#: bound-pass survivors the robust oracle holds before scoring them in
#: one ascending-bound sweep (caps its memory on large spaces; exact at
#: any value, since every dropped candidate's bound exceeds a scored
#: candidate's value).
_ROBUST_HELD = 1 << 16

#: search-space size from which the analytic search climbs from its
#: Algorithm-1 seed before it expands the levels.  A climb round is one
#: kernel call (~0.5-1 ms on a 2-core x86-64 host, mostly fixed cost),
#: which small searches do not earn back: on the 30 queries of the
#: seed-1 ``oracle`` benchmark stream below this size, climbing took
#: 95 ms in total against 51-58 ms without (best of 5 per query).
_CLIMB_MIN_SPACE = 1_000_000

#: leaf columns assembled and scored per frontier-kernel call in the
#: analytic search.  The kernel walks its ~6p stage-major rows once per
#: anti-diagonal, so the chunk is sized for cache, not call overhead: on
#: a 2-core x86-64 host (2 MB L2 per core) depth-12 zoo searches score
#: ~1.8x faster per column at 8 192 columns than at 131 072 (4 096 and
#: 16 384 are within noise), and ~2x slower again at 1 024 on the fixed
#: per-call cost.  Results are chunk-size-invariant: pure tuning.
_ANALYTIC_BLOCK = 8_192

#: columns below which a chunk runs without the mid-sweep sieve.  Same
#: host, the zoo's depth 8-11 searches: under ~4k columns the sieve's
#: checkpoint scans cost more than the lanes they retire (sweeps are
#: 1.0-1.8x slower sieved), from ~5k columns it breaks even, and a full
#: 8 192-column depth-12 chunk runs ~1.4x faster sieved.  Skipping it is
#: exact — the sieve only ever drops provably-over-limit columns.
_SIEVE_MIN_COLS = 4_096

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
    #: candidates actually simulated: the seed's scalar run plus, for
    #: the analytic search, the seed climb's columns and every other
    #: leaf column the kernel scored (the probe and the columns that
    #: passed the leaf-bound filter, including any its mid-sweep sieve
    #: then dropped).
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


def iter_partitions(num_blocks: int, num_stages: int) -> Iterator[Tuple[int, ...]]:
    """Yield every contiguous partition as a tuple of stage sizes."""
    if num_stages <= 0 or num_stages > num_blocks:
        raise ValueError(
            f"cannot cut {num_blocks} blocks into {num_stages} stages"
        )
    for cuts in itertools.combinations(range(1, num_blocks), num_stages - 1):
        edges = (0, *cuts, num_blocks)
        yield tuple(b - a for a, b in zip(edges, edges[1:]))


def count_partitions(num_blocks: int, num_stages: int) -> int:
    """C(n-1, p-1): the size of the search space the heuristic avoids."""
    from math import comb

    if num_stages <= 0 or num_stages > num_blocks:
        raise ValueError(
            f"cannot cut {num_blocks} blocks into {num_stages} stages"
        )
    return comb(num_blocks - 1, num_stages - 1)


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

    The ``prune=False`` robust path and the reference the bound-pruned
    :func:`_search_robust_pruned` is property-tested against: it
    enumerates every candidate and evaluates whole chunks of them under
    all ``K`` draws through one ``(C*K, n)`` frontier sweep
    (:func:`~repro.robustness.evaluate.robust_objective_batch`).  Chunks
    are sized so the batch stays near :data:`_DEFAULT_CHUNK` *rows*
    (candidates x draws), bounding peak memory.  ``offer`` runs per candidate in
    enumeration order, so the argmin semantics (first lexicographic
    candidate achieving the minimum objective) match the nominal brute
    force's.
    """
    n = len(fwd)
    factors = robust.factors(num_stages)
    cand_chunk = max(1, _DEFAULT_CHUNK // factors.draws)
    sizes_buf: List[Tuple[int, ...]] = []
    f_buf: List[Tuple[float, ...]] = []
    b_buf: List[Tuple[float, ...]] = []
    tel = _obs.current()

    def flush() -> None:
        if not sizes_buf:
            return
        t_f = tel.clock() if tel is not None else 0
        values = robust_objective_batch(
            np.asarray(f_buf), np.asarray(b_buf), comm,
            num_micro_batches, factors, robust.statistic,
            comm_mode=comm_mode,
        )
        state.evaluations += len(sizes_buf)
        for sizes, v in zip(sizes_buf, values.tolist()):
            state.offer(sizes, v)
        if tel is not None:
            tel.record_since(
                "oracle.chunk_flush", t_f,
                rows=len(sizes_buf), draws=factors.draws,
            )
        sizes_buf.clear()
        f_buf.clear()
        b_buf.clear()

    for sizes in iter_partitions(n, num_stages):
        f_stages, b_stages = _stage_sums(fwd, bwd, sizes)
        sizes_buf.append(sizes)
        f_buf.append(f_stages)
        b_buf.append(b_stages)
        if len(sizes_buf) >= cand_chunk:
            flush()
    flush()


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


def _edge_slabs(n: int, num_stages: int, slab: int) -> Iterator[np.ndarray]:
    """Cut edges ``[0, c_1, .., c_{p-1}, n]`` of every candidate, in
    lexicographic sizes order, as ``(<= slab, p + 1)`` int arrays.

    Only one slab is materialised at a time.
    """
    p = num_stages
    if p == 1:
        yield np.array([[0, n]], dtype=np.int64)
        return
    cuts = itertools.chain.from_iterable(
        itertools.combinations(range(1, n), p - 1)
    )
    while True:
        flat = np.fromiter(
            itertools.islice(cuts, slab * (p - 1)), dtype=np.int64
        )
        if not flat.size:
            return
        edges = np.empty((flat.size // (p - 1), p + 1), dtype=np.int64)
        edges[:, 0] = 0
        edges[:, 1:p] = flat.reshape(-1, p - 1)
        edges[:, p] = n
        yield edges


def _search_robust_pruned(
    fwd: Sequence[float],
    bwd: Sequence[float],
    comm: float,
    num_stages: int,
    num_micro_batches: int,
    comm_mode: str,
    state: _SearchState,
    robust: RobustObjective,
) -> None:
    """Exact robust oracle: bound-ordered sweeps over the candidate space.

    Every candidate gets a lower bound on its robust objective: the
    straggler bound of :class:`_Bounds`, ``max_x prefixW(x) +
    2*x*Comm + m*w_x``, evaluated per draw on the *perturbed* stage
    costs and comm, then reduced with the objective's statistic.  Mean,
    P95 (a linear interpolation between order statistics) and max are
    each non-decreasing in every per-draw value, and each per-draw bound
    is at most that draw's iteration time, so the reduced bound is at
    most the candidate's objective.

    Candidates are enumerated in slabs; each slab's bounds are computed
    at once and candidates whose bound already exceeds ``incumbent *
    _PRUNE_SLACK`` are dropped on the spot.  The survivors are held until
    :data:`_ROBUST_HELD` of them accumulate (or the space ends), then
    scored through
    :func:`~repro.robustness.evaluate.robust_objective_batch` in
    ascending-bound blocks — a first narrow block
    (:data:`_DEFAULT_CHUNK` kernel rows) finds a strong incumbent, then
    one wide block takes every remaining candidate whose bound is within
    ``incumbent * _PRUNE_SLACK``; the rest are discarded.  Peak memory is therefore one
    slab plus the held survivors, whatever the space size.  The slack
    covers float rounding in the bound arithmetic, so the optimum and
    every tie are always scored.

    Each block's minimum-value candidates are offered through
    :meth:`_SearchState.offer`, whose tie-break toward the
    lexicographically smaller sizes makes the result the brute force's
    argmin in any scoring order.  Candidate stage costs come from the
    left-fold slice tables, so values are bitwise those of
    :func:`_search_robust`.
    """
    n = len(fwd)
    p = num_stages
    m = num_micro_batches
    count = math.comb(n - 1, p - 1)
    factors = robust.factors(p)
    k = factors.draws
    statistic = robust.statistic
    slack = _PRUNE_SLACK
    SF, SB = _slice_sum_tables(fwd, bwd)
    first = max(1, _DEFAULT_CHUNK // k)
    slab = max(1, _robust_eval._MAX_ROWS // k)
    slabs = _edge_slabs(n, p, slab)
    tel = _obs.current()

    def costs(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(C, p)`` stage-cost matrices of the given edge rows."""
        starts = rows[:, :p]
        last = rows[:, 1:] - starts - 1
        return SF[starts, last], SB[starts, last]

    def score(rows: np.ndarray) -> None:
        """Score one block under every draw and offer its argmin."""
        t_f = tel.clock() if tel is not None else 0
        f_c, b_c = costs(rows)
        values = robust_objective_batch(
            f_c, b_c, comm, m, factors, statistic, comm_mode=comm_mode,
        )
        state.evaluations += len(rows)
        vmin = values.min()
        ties = rows[values == vmin]
        best = min(tuple(np.diff(r).tolist()) for r in ties)
        state.offer(best, float(vmin))
        if tel is not None:
            tel.record_since(
                "oracle.chunk_flush", t_f, rows=len(rows), draws=k,
            )

    if count <= first:
        score(np.concatenate(list(slabs)))
        return

    comm_k = factors.comm * comm
    ff = np.ascontiguousarray(factors.fwd.T)
    fb = np.ascontiguousarray(factors.bwd.T)

    def bounds(rows: np.ndarray) -> np.ndarray:
        """Per-draw straggler bounds, one stage at a time, reduced by
        the statistic."""
        f_c, b_c = costs(rows)
        prefix = np.zeros((len(rows), k))
        per_draw = np.zeros((len(rows), k))
        for x in range(p):
            w = f_c[:, x, None] * ff[x]
            w += b_c[:, x, None] * fb[x]
            lb = m * w
            lb += prefix
            if x:
                lb += (2 * x) * comm_k
            np.maximum(per_draw, lb, out=per_draw)
            prefix += w
        return reduce_statistic(per_draw, statistic, axis=1)

    def sweep(rows: np.ndarray, bound: np.ndarray) -> None:
        """Score held survivors in ascending-bound blocks."""
        order = np.argsort(bound, kind="stable")
        rows, bound = rows[order], bound[order]
        i = 0
        while i < len(rows):
            limit = state.best_time * slack
            if bound[i] > limit:
                return
            j = i + first if i == 0 else len(rows)
            j = min(j, int(np.searchsorted(bound, limit, side="right")))
            score(rows[i:j])
            i = j

    held_rows: List[np.ndarray] = []
    held_bound: List[np.ndarray] = []
    held = 0
    for rows in slabs:
        bound = bounds(rows)
        keep = bound <= state.best_time * slack
        if not keep.all():
            rows, bound = rows[keep], bound[keep]
        held_rows.append(rows)
        held_bound.append(bound)
        held += len(rows)
        if held >= _ROBUST_HELD:
            sweep(np.concatenate(held_rows), np.concatenate(held_bound))
            held_rows, held_bound, held = [], [], 0
    if held:
        sweep(np.concatenate(held_rows), np.concatenate(held_bound))


class _Bounds:
    """Lower bounds on the iteration time of partial assignments.

    All bounds are provable for both comm modes, which charge at least
    ``Comm`` on every cross-stage dependency edge.  With ``m``
    micro-batches and stage loads ``w_x = f_x + b_x``:

    * **straggler bound** — for any stage ``x``, micro-batch 0's forward
      must reach it (``sum_{y<x} f_y + x*Comm``), its 2m intra-chained
      ops need ``m * w_x``, and micro-batch m-1's backward must return
      to stage 0 (``sum_{y<x} b_y + x*Comm``); so
      ``T >= prefixW(x) + 2*x*Comm + m*w_x``.
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
      The last stage always holds block ``n-1``, which gives the global
      :attr:`floor`.

    Everything here is a pure function of ``(fwd, bwd, comm, p, m)``:
    the prefix sums, the min-max suffix DP, the exact left-fold slice
    tables ``SF``/``SB`` (:func:`_slice_sum_tables`) and the bound of
    every last stage (``leaf_lb``, a function of its start ``pos`` only).
    Float prefix sums drive the *bounds* only; candidate stage times
    always come from the slice tables, the brute force's summation.
    """

    def __init__(
        self,
        fwd: Sequence[float],
        bwd: Sequence[float],
        comm: float,
        num_stages: int,
        num_micro_batches: int,
    ) -> None:
        n = len(fwd)
        p = num_stages
        m = num_micro_batches
        self._p = p
        self._m = m
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
        #: round-trip constant of the tail bound.
        self.base_rt = float(prefw[n]) + 2 * (p - 1) * comm
        self.floor = self.base_rt + (m - 1) * float(weights[n - 1])
        self.SF, self.SB = _slice_sum_tables(fwd, bwd)

        # Leaf bounds: the last stage always starts at ``s = p - 1`` and
        # spans ``pos..n-1``, so its bound is a pure function of ``pos``.
        q = np.arange(n)
        #: left-fold cost of blocks ``pos..n-1`` (the last stage's cost).
        self.suf_f = self.SF[q, n - q - 1]
        self.suf_b = self.SB[q, n - q - 1]
        f_sum = self.suf_f[p - 1:]
        b_sum = self.suf_b[p - 1:]
        leaf_lb = np.full(n, inf)
        leaf_lb[p - 1:] = np.maximum(
            np.maximum(
                prefw[p - 1:n] + 2 * (p - 1) * comm + m * (f_sum + b_sum),
                self.base_rt + self.tail(p - 1, f_sum, b_sum),
            ),
            self.floor,
        )
        self.leaf_lb = leaf_lb

    def tail(self, stage: int, f_sum: float, b_sum: float) -> float:
        """Work stage ``stage`` still owes after micro-batch 0 returns.

        ``(s - 1)*(f + b) + w*b`` with ``w = min(m, p-1-stage)`` warmup
        depth and ``s = m - w`` steady pairs, or ``(m-1)*b`` when
        ``s = 0``.
        """
        m = self._m
        w_cnt = min(m, self._p - 1 - stage)
        steady = m - w_cnt
        if steady >= 1:
            return (steady - 1) * (f_sum + b_sum) + w_cnt * b_sum
        return (m - 1) * b_sum


def _seed_climb(
    bounds: _Bounds,
    comm: float,
    num_micro_batches: int,
    comm_mode: str,
    state: _SearchState,
    scored: Set[Tuple[int, ...]],
) -> None:
    """Steepest descent from the incumbent over one-block transfers.

    A move takes one block from stage ``i`` to stage ``j != i``; the
    stages between them shift by a block and keep their sizes.  Each
    round builds every valid move of the incumbent not yet in ``scored``
    (at most ``p * (p - 1)`` columns) from the exact left-fold slice
    tables ``SF``/``SB``, scores them with one
    :func:`~repro.sim.analytic.frontier_times_transposed` call and
    offers the round's minimum (ties to the lexicographically smallest
    sizes).  The climb stops at the first round that does not strictly
    improve the incumbent.  Every offer is a true candidate time, so the
    climb only tightens the limit the levels are admitted against.
    Scored columns are counted as evaluations and added to ``scored``,
    which keeps the leaf sweep from counting them again.  Records an
    ``oracle.climb`` span (``rounds``, ``cols``).
    """
    from repro.sim.analytic import frontier_times_transposed

    n = bounds.SF.shape[0]
    p = len(state.best_sizes)
    eye = np.eye(p, dtype=np.int64)
    src, dst = np.nonzero(eye == 0)
    moves = eye[dst] - eye[src]
    SF_flat, SB_flat = bounds.SF.ravel(), bounds.SB.ravel()
    tel = _obs.current()
    t_c = tel.clock() if tel is not None else 0
    rounds = cols = 0
    while True:
        sizes = np.asarray(state.best_sizes) + moves
        cand = [
            c for c in map(tuple, sizes[(sizes >= 1).all(axis=1)].tolist())
            if c not in scored
        ]
        if not cand:
            break
        sizes = np.array(cand, dtype=np.int64)
        cell = ((np.cumsum(sizes, axis=1) - sizes) * n + sizes - 1).T
        times, _ = frontier_times_transposed(
            SF_flat.take(cell), SB_flat.take(cell), comm, num_micro_batches,
            comm_mode=comm_mode,
        )
        rounds += 1
        cols += len(cand)
        state.evaluations += len(cand)
        scored.update(cand)
        before = state.best_time
        tmin = times.min()
        state.offer(
            min(cand[i] for i in np.flatnonzero(times == tmin)), float(tmin),
        )
        if not state.best_time < before:
            break
    if tel is not None:
        tel.record_since("oracle.climb", t_c, rounds=rounds, cols=cols)


def _search_analytic(
    fwd: Sequence[float],
    bwd: Sequence[float],
    comm: float,
    num_stages: int,
    num_micro_batches: int,
    comm_mode: str,
    state: _SearchState,
) -> None:
    """Branch-and-bound scored by the closed-form max-plus kernel.

    * **Seed and climb.**  The Algorithm-1 min-max partition is
      simulated first and offered to the incumbent.  On spaces of at
      least :data:`_CLIMB_MIN_SPACE` candidates, :func:`_seed_climb`
      then runs a steepest descent from it over one-block transfers
      between any two stages, one kernel call per round, until a round
      brings no strict improvement.  Any valid candidate may tighten
      the incumbent without affecting exactness: it goes through the
      same tie-breaking ``offer``, and a tighter incumbent only ever
      prunes candidates whose true time provably exceeds the final
      best.
    * **Fixed admission limit.**  While the levels are built the limit
      is ``incumbent * _PRUNE_SLACK``, fixed after the climb.  Whether
      a stage of ``size`` blocks starting at ``pos`` on level ``s`` is
      admitted then depends only on ``(s, pos, size)`` — its straggler
      and round-trip bounds, and the suffix relaxation of what remains
      (:class:`_Bounds`) — never on the path to it, so the cut descent
      flattens into a **vectorized level expansion** one stage at a
      time through per-level admission grids.  Each level is kept as
      parent pointers — per prefix, its parent's index on the level
      above and its last stage's cell in the ``(pos, size - 1)`` grids
      — so no earlier stage is copied from level to level.  The limit
      tightens only at the leaf level (below).
    * **Dominance memo.**  A prefix is characterised by ``(pos,
      f_stages, b_stages)``: every candidate below it only extends those
      stage times.  When two prefixes of a level agree on it, the
      lexicographically smaller twin covers every candidate the other
      could contribute with an identical time, and wins any tie, so the
      larger twin is dropped.  Levels are kept in lexicographic sizes
      order, so ``np.unique``'s first occurrence is that smaller twin;
      the removed subtrees are counted in ``dominance_pruned``.  Twins
      need a block that a stage's left fold absorbs in both its fwd and
      bwd sum, so the memo is engaged only when some block costs at
      most one ulp of twice the model's fwd and bwd totals (a zero-cost
      block, in practice); no zoo model has one.  Its gate is a hash of
      the stage costs, extended from the parent's hash one stage per
      level (twins hash bit-equal); the exact key rows are rebuilt from
      the parent pointers only on a level where two hashes collide.
    * **Scoring, best bound first.**  Each leaf column gets one lower
      bound: the max of its stages' own bounds (the per-level ``fixb``
      grids, carried down the parent pointers in chunks) and its last
      stage's ``leaf_lb``.  The :data:`_PROBE_COLS` lowest-bound
      columns are scored first, which tightens the incumbent; of the
      rest, only the columns whose bound is within the tightened
      ``best * _PRUNE_SLACK`` are scored, in lex order, and the others
      are pruned unscored.  A dropped column's bound exceeds a simulated
      time, so it is neither the optimum nor a tie.  Scored columns go
      in chunks of :data:`_ANALYTIC_BLOCK`, assembled into stage-major
      ``(p, chunk)`` cost buffers by walking the parent pointers into
      the exact left-fold slice tables, so every column is bitwise the
      brute force's stage-time vector, and scored by
      :func:`repro.sim.analytic.frontier_times_transposed`, which is
      bit-identical to the scalar simulator.  Wide chunks get the
      current bound for the kernel's mid-sweep sieve, which only ever
      drops columns whose lower bound exceeds a true candidate time
      (padded for rounding).  Ties are resolved by reconstructing every
      minimum-time column and offering the lexicographically smallest;
      ``offer`` does not depend on scoring order, so the result is the
      brute-force argmin, property-tested against it.  Seed and climb
      columns are not counted again as fresh evaluations.

    The last stage is never a prefix level: its size is forced by the
    second-to-last cut, and its costs are the per-pos suffix totals.
    With a :mod:`repro.obs` registry current, the climb records an
    ``oracle.climb`` span with its ``rounds`` and ``cols``, every level an
    ``oracle.level`` span with its ``admitted`` and (after the memo)
    live ``prefixes`` counts, and the leaf level an ``oracle.probe``
    span with the probe's ``cols``, the filter's ``survivors`` and the
    incumbent before and after the probe.
    """
    from repro.sim.analytic import frontier_times_transposed

    n = len(fwd)
    p = num_stages
    m = num_micro_batches

    scored = {_evaluate_seed(fwd, bwd, comm, p, m, comm_mode, state)}
    if p == 1:
        return  # the single candidate is the Algorithm-1 seed itself.

    bounds = _Bounds(fwd, bwd, comm, p, m)
    if math.comb(n - 1, p - 1) >= _CLIMB_MIN_SPACE:
        _seed_climb(bounds, comm, m, comm_mode, state, scored)
    slack = _PRUNE_SLACK
    limit = state.best_time * slack
    block = _ANALYTIC_BLOCK
    inf = float("inf")

    prefw_v = bounds.prefw
    minmax_v = bounds.minmax
    leaf_pad = np.append(bounds.leaf_lb, inf)
    base_rt = bounds.base_rt
    pos_col = np.arange(n)[:, None]
    k_row = np.arange(n)[None, :]
    src = pos_col + k_row
    SF, SB = bounds.SF, bounds.SB
    SF_flat, SB_flat = SF.ravel(), SB.ravel()
    SS = SF + SB
    pos2_grid = np.minimum(src + 1, n)

    # Per level, the flattened ``(pos, size - 1)`` grid of a stage's own
    # bounds; the leaf bounds read it back up the parent pointers.
    stage_lb: List[np.ndarray] = []

    def admitted_mask(s: int) -> np.ndarray:
        """``(pos, size - 1)`` admission grid at level ``s``.

        A stage is admitted when both its own bounds (straggler and
        round-trip + tail, ``fixb``) and the suffix relaxation of the
        blocks after it (``remb``, merged with the leaf bound when one
        stage remains) are within the limit.  ``fixb`` is kept in
        ``stage_lb``.
        """
        w_cnt = min(m, p - 1 - s)
        steady = m - w_cnt
        if steady >= 1:
            tail = (steady - 1) * SS + w_cnt * SB
        else:
            tail = (m - 1) * SB
        base = prefw_v[:n] + 2 * s * comm
        fixb = np.maximum(base[:, None] + m * SS, base_rt + tail)
        stage_lb.append(fixb.ravel())
        rem = p - s - 1
        mm = minmax_v[rem]
        remb = (prefw_v + 2 * (s + 1) * comm) + m * mm
        if m > rem:
            np.maximum(remb, base_rt + (m - rem) * mm, out=remb)
        if rem == 1:
            np.maximum(remb, leaf_pad, out=remb)
        valid = k_row < (n - pos_col - (p - s - 1))
        return valid & (fixb <= limit) & (remb[pos2_grid] <= limit)

    # Twins (equal pos and stage costs, different sizes) first differ in
    # a cut, and the longer of the two stages there folds extra blocks
    # into an equal sum.  A left fold of non-negative costs only grows,
    # so each extra block was absorbed, fwd and bwd alike, by a partial
    # sum no larger than the left-fold total: it costs at most one ulp
    # of twice the total in both.  Without such a block no level has
    # twins, and the memo is skipped.
    f_tol = math.ulp(2 * float(bounds.suf_f[0]))
    b_tol = math.ulp(2 * float(bounds.suf_b[0]))
    use_dominance = any(
        f <= f_tol and b <= b_tol for f, b in zip(fwd, bwd)
    )
    if use_dominance:
        # comb(a, b) lookup for the dominance counters (vectorized over
        # the removed twins' positions).
        comb_tab = np.array(
            [[math.comb(a, b) if b <= a else 0 for b in range(p)]
             for a in range(n)],
            dtype=np.int64,
        )
        # Fixed mixing weights for the duplicate gate, folded in one
        # stage at a time from the parent's hash.  Only stage costs go
        # in (twins differ in sizes), added in the same order for every
        # prefix, so twins hash bit-equal and a collision-free level
        # provably has no twins and skips the exact row dedup outright.
        hash_w = np.cos(np.arange(1, 2 * p + 1) * 12.9898) * 43758.5453
        acc = np.zeros(1)

    # Levels as parent pointers: per live prefix of level L, its
    # parent's index on level L - 1 and its last stage's cell ``start *
    # n + size - 1`` in the ``(pos, size - 1)`` grids.  Nothing is copied
    # from level to level; stage costs are read back through the chain
    # from the slice tables.  The last level (L = p - 2) holds the leaf
    # columns: the last stage's size is forced by their cut.
    parent: List[np.ndarray] = []
    cells: List[np.ndarray] = []
    # End position of every live prefix, in lexicographic sizes order.
    pos_arr = np.zeros(1, dtype=np.int64)

    def fill_costs(i: np.ndarray, top: int, f_out, b_out) -> None:
        """Write the stage costs of level-``top`` prefixes ``i`` into
        rows ``0..top`` of the stage-major ``f_out`` / ``b_out``."""
        for lev in range(top, -1, -1):
            cell = cells[lev].take(i)
            SF_flat.take(cell, out=f_out[lev])
            SB_flat.take(cell, out=b_out[lev])
            if lev:
                i = parent[lev].take(i)

    tel = _obs.current()
    for lev in range(p - 1):
        t_l = tel.clock() if tel is not None else 0
        # Fan the level out through its admission grid.  np.nonzero
        # walks the grid row-major, so each pos's admitted sizes come
        # out ascending, and ``repeat`` keeps each parent's children
        # together: the level lands in lex order with no sort.
        mask = admitted_mask(lev)
        W = mask.sum(axis=1)
        W_col = W.take(pos_arr)
        total = int(W_col.sum())
        if total == 0:
            return  # every subtree exceeds the seed bound: it stands.
        # Child j of parent r takes entry ``OFF[pos_r] + j -
        # first_child[r]`` of the grid's flattened admitted sizes.
        shift = (np.cumsum(W) - W).take(pos_arr) - (np.cumsum(W_col) - W_col)
        til = np.nonzero(mask)[1].take(np.arange(total) + shift.repeat(W_col))
        rep = np.arange(pos_arr.size).repeat(W_col)
        prow = pos_arr.repeat(W_col)
        cell = prow * n + til
        parent.append(rep)
        cells.append(cell)
        pos_arr = prow + til + 1
        if use_dominance and lev < p - 2:
            acc = acc.take(rep) + hash_w[lev] * SF_flat.take(cell)
            acc += hash_w[p + lev] * SB_flat.take(cell)
            live = pos_arr.size
            if live > 1 and np.unique(acc + pos_arr).size < live:
                # The per-level dominance memo: twin prefixes share
                # (pos, f_stages, b_stages), and every leaf below a
                # twin only extends those stage times.  np.unique keeps
                # the first occurrence — the lex-smallest twin — and
                # each removed subtree counts its C(n-pos-1, p-lev-2)
                # leaves.  The key rows are rebuilt from the parent
                # pointers only here, where the hash gate fired.
                key = np.empty((2 * lev + 3, pos_arr.size))
                key[0] = pos_arr
                fill_costs(
                    np.arange(pos_arr.size), lev,
                    key[1:lev + 2], key[lev + 2:],
                )
                _, first_idx, counts = np.unique(
                    np.ascontiguousarray(key.T), axis=0,
                    return_index=True, return_counts=True,
                )
                if first_idx.size < pos_arr.size:
                    dup = counts > 1
                    state.dominance_pruned += int(np.sum(
                        (counts[dup] - 1)
                        * comb_tab[
                            n - pos_arr[first_idx[dup]] - 1, p - lev - 2
                        ]
                    ))
                    keep = np.sort(first_idx)
                    parent[lev] = rep[keep]
                    cells[lev] = cell[keep]
                    pos_arr = pos_arr[keep]
                    acc = acc[keep]
        if tel is not None:
            tel.record_since(
                "oracle.level", t_l, level=lev, admitted=total,
                prefixes=int(pos_arr.size),
            )
    del W_col, shift  # per-parent scratch of the leaf level's expansion

    # Seed and climb columns ride the sweep too (the kernel reproduces
    # their times bitwise) but are not fresh evaluations.  They are
    # walked down the deduped levels, all at once: within a level,
    # ``parent * n*n + cell`` is strictly increasing (lex order), so a
    # binary search finds each one's child.  A column whose twin
    # subtree was dominance-pruned correctly counts as a fresh column
    # under the surviving twin's sizes.
    seen = np.array(list(scored), dtype=np.int64)
    want = (np.cumsum(seen, axis=1) - seen) * n + seen - 1
    walk = np.zeros(len(seen), dtype=np.int64)
    found = np.ones(len(seen), dtype=bool)
    for lev in range(p - 1):
        key = parent[lev] * (n * n) + cells[lev]
        target = walk * (n * n) + want[:, lev]
        walk = np.minimum(np.searchsorted(key, target), key.size - 1)
        found &= key.take(walk) == target
    seen_idx = walk[found]
    del key, target

    def column_sizes(c: int) -> Tuple[int, ...]:
        """Stage sizes of leaf column ``c``, read up the parent chain."""
        sizes = [n - int(pos_arr[c])]
        for lev in range(p - 2, -1, -1):
            sizes.append(int(cells[lev][c]) % n + 1)
            c = int(parent[lev][c])
        return tuple(reversed(sizes))

    def score(cols: np.ndarray) -> None:
        """Score leaf columns ``cols`` through the kernel, chunk by chunk."""
        for c0 in range(0, cols.size, block):
            idx = cols[c0:c0 + block]
            t_f = tel.clock() if tel is not None else 0
            fwd_mat = np.empty((p, idx.size))
            bwd_mat = np.empty((p, idx.size))
            fill_costs(idx, p - 2, fwd_mat, bwd_mat)
            # The forced last stage costs the per-pos suffix total.
            leaf_pos = pos_arr.take(idx)
            bounds.suf_f.take(leaf_pos, out=fwd_mat[p - 1])
            bounds.suf_b.take(leaf_pos, out=bwd_mat[p - 1])
            # The mid-sweep sieve's per-checkpoint scan only pays for
            # itself on wide chunks; narrow ones run the plain (exact)
            # sweep.
            times, keepmap = frontier_times_transposed(
                fwd_mat, bwd_mat, comm, m, comm_mode=comm_mode,
                limit=(state.best_time * slack
                       if idx.size >= _SIEVE_MIN_COLS else None),
            )
            if times.size:
                tmin = times.min()
                ties = np.flatnonzero(times == tmin)
                hit = keepmap[ties] if keepmap is not None else ties
                state.offer(
                    min(column_sizes(c) for c in idx.take(hit).tolist()),
                    float(tmin),
                )
            state.evaluations += idx.size - int(
                np.isin(idx, seen_idx).sum()
            )
            if tel is not None:
                tel.record_since(
                    "oracle.kernel_sweep", t_f,
                    cols=int(idx.size), kept=int(times.size),
                )

    def leaf_bounds() -> np.ndarray:
        """One lower bound per leaf column: the max of its stages' own
        bounds (the ``stage_lb`` grids) and its last stage's
        ``leaf_lb``.  The running max is carried down the parent
        pointers one level at a time, in chunks, so only two levels'
        bounds are held at once."""
        lb = np.full(1, -inf)
        for lev in range(p - 1):
            up, lb = lb, np.empty(parent[lev].size)
            for c0 in range(0, lb.size, block):
                c1 = c0 + block
                np.maximum(
                    stage_lb[lev].take(cells[lev][c0:c1]),
                    up.take(parent[lev][c0:c1]),
                    out=lb[c0:c1],
                )
        return np.maximum(lb, leaf_pad.take(pos_arr), out=lb)

    # Probe, then filter.  The _PROBE_COLS lowest-bound columns (ties at
    # the cut taken in lex order) are scored first to tighten the
    # incumbent; of the rest, only columns whose bound is within the
    # tightened limit are scored, in lex order.  A column dropped here
    # has a valid lower bound above a simulated time, so it can be
    # neither the optimum nor a tie.
    t_p = tel.clock() if tel is not None else 0
    before = state.best_time
    k = _PROBE_COLS
    if pos_arr.size <= k:
        probe = np.arange(pos_arr.size)
        score(probe)
        survivors = probe[:0]
    else:
        lb = leaf_bounds()
        cut = np.partition(lb, k - 1)[k - 1]
        below = np.flatnonzero(lb < cut)
        probe = np.union1d(below, np.flatnonzero(lb == cut)[:k - below.size])
        score(probe)
        within = lb <= state.best_time * slack
        within[probe] = False
        survivors = np.flatnonzero(within)
        del lb, within
    if tel is not None:
        tel.record_since(
            "oracle.probe", t_p, cols=int(probe.size),
            survivors=int(survivors.size), incumbent_before=before,
            incumbent_after=state.best_time,
        )
    score(survivors)


def _evaluate_seed(
    fwd: Sequence[float],
    bwd: Sequence[float],
    comm: float,
    num_stages: int,
    num_micro_batches: int,
    comm_mode: str,
    state: _SearchState,
) -> Tuple[int, ...]:
    """Simulate the Algorithm-1 min-max seed and offer it to the incumbent.

    One scalar simulation (counted on ``state``).  Returns the seed's
    sizes, which :func:`_search_analytic` keeps out of its
    fresh-evaluation count.
    """
    tel = _obs.current()
    t_s = tel.clock() if tel is not None else 0
    weights = [f + b for f, b in zip(fwd, bwd)]
    seed = tuple(min_max_partition(weights, num_stages))
    seed_f, seed_b = _stage_sums(fwd, bwd, seed)
    sim = PipelineSim(
        StageTimes(seed_f, seed_b, comm), num_micro_batches,
        comm_mode=comm_mode,
    ).run()
    state.evaluations += 1
    state.offer(seed, sim.iteration_time)
    if tel is not None:
        tel.record_since("oracle.warm_seeds", t_s, seeds=1)
    return seed


def _search_mode(prune: bool, robust: Optional[RobustObjective]) -> str:
    """The search routine a knob combination selects."""
    if robust is not None:
        return "robust" if prune else "robust_brute"
    return "analytic" if prune else "brute"


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
    cache=None,
) -> ExhaustiveResult:
    """Find the optimal partition over every contiguous candidate.

    ``prune=True`` (default) runs the branch-and-bound search scored by
    the max-plus frontier kernel; ``prune=False`` runs the literal
    scalar brute force.  Both return the identical partition and
    iteration time.  On search spaces of at least
    :data:`_CLIMB_MIN_SPACE` candidates the pruned search climbs from
    its Algorithm-1 seed by one-block transfers between stages before it
    expands any level: the climb's near-optimal incumbent tightens the
    admission limit (on gpt2-762m at depth 12 the leaf level admits
    ~22k columns instead of ~353k).  The result is still the exact
    brute-force argmin, because climb candidates go through the same
    tie-breaking ``offer`` and bounds only ever discard provably worse
    subtrees.  Twin prefixes (equal stage costs, different sizes) are
    dropped by a dominance memo, which runs only on profiles with a
    block cheap enough for a stage sum to absorb.  A subtree is
    discarded only when its lower bound exceeds the incumbent by more
    than the relative slack :data:`_PRUNE_SLACK` (``1 + 1e-9``), which
    absorbs float rounding so the search stays exact.
    ``num_stages`` and ``num_micro_batches`` must be integers ``>= 1``
    (``TypeError`` for a bool or non-integral value, ``ValueError``
    below 1).  Raises ``ValueError`` if the search space exceeds
    ``max_evaluations`` (pass ``None`` to force it anyway).

    ``robust`` replaces the objective with a
    :class:`~repro.robustness.evaluate.RobustObjective`: the oracle
    returns the first lexicographic partition minimising the configured
    statistic of the simulated iteration time over the objective's
    perturbation draws.  ``prune`` applies here too: ``prune=True``
    (default) sorts candidates by the straggler bound evaluated per draw
    on the perturbed costs and reduced with the objective's statistic
    (a valid lower bound because mean, P95 and max are monotone in every
    draw), scores them in a few ascending-bound batched sweeps and stops
    at the first bound above ``incumbent * _PRUNE_SLACK``;
    ``prune=False`` enumerates the full space in chunks of
    ``_DEFAULT_CHUNK // draws`` candidates (the specification).  Both
    return the identical partition and objective value.  The seed
    climb is not used.  The winner's objective
    value is reported as ``ExhaustiveResult.robust_value``, while
    ``sim`` stays the winner's *nominal* simulation.

    The search runs in the calling process.  ``jobs`` accepts only
    ``1``: any other integer raises ``ValueError`` (``TypeError`` for a
    bool or non-integral value).

    ``cache`` is a persistent :class:`~repro.core.plan_cache.PlanCache`
    (default: the process-wide ``--plan-cache-dir`` cache, off when
    unset; pass ``False`` to force caching off for one call).  A warm
    hit replays the stored result — same partition, iteration time and
    original search statistics — without running any simulation; the
    key covers the full profile content and every search knob.

    When a :mod:`repro.obs` registry is current (``obs.session`` or the
    CLI's ``--telemetry``), the call records an ``oracle.search`` span
    and the ``oracle.*`` counters into it.  Telemetry only reads clocks
    and counters: the returned partition, iteration time and every
    tie-break are bit-identical with a registry installed or not
    (property-tested), and with none installed the instrumentation is a
    no-op costing <2% on the depth-8 oracle bench (guarded in
    ``benchmarks/test_bench_telemetry.py``).
    """
    num_stages = _check_count("num_stages", num_stages)
    num_micro_batches = _check_count("num_micro_batches", num_micro_batches)
    _check_jobs(jobs)
    RobustObjective.check(robust)
    tel = _obs.current()
    t0 = tel.clock() if tel is not None else 0
    result = _exhaustive_impl(
        profile, num_stages, num_micro_batches, comm_mode=comm_mode,
        max_evaluations=max_evaluations, prune=prune, robust=robust,
        cache=cache,
    )
    if tel is not None:
        tel.record_since(
            "oracle.search", t0, mode=_search_mode(prune, robust),
            depth=num_stages, m=num_micro_batches, space=result.space,
        )
        # Counters fold from the result's own fields, so the registry
        # and the ExhaustiveResult can never disagree.
        tel.add("oracle.searches", 1)
        tel.add("oracle.evaluations", result.evaluations)
        tel.add("oracle.search_seconds", result.search_seconds)
        tel.add("oracle.space", result.space)
        tel.add("oracle.dominance_pruned", result.dominance_pruned)
        tel.add("oracle.pruned", result.pruned)
        tel.add("oracle.incumbent_updates", result.incumbent_updates)
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
    cache,
) -> ExhaustiveResult:
    """The oracle search body; ``exhaustive_partition`` wraps it."""
    n = profile.num_blocks
    space = count_partitions(n, num_stages)
    if max_evaluations is not None and space > max_evaluations:
        raise ValueError(
            f"search space C({n - 1},{num_stages - 1}) = {space} exceeds "
            f"max_evaluations={max_evaluations}"
        )
    from repro.core.plan_cache import resolve_plan_cache

    plan_cache = resolve_plan_cache(cache)
    cache_key = None
    if plan_cache is not None:
        cache_key = plan_cache.exhaustive_key(
            profile, num_stages, num_micro_batches,
            comm_mode=comm_mode, prune=prune, robust=repr(robust),
        )
        stored = plan_cache.load(cache_key, expect=ExhaustiveResult)
        if stored is not None:
            _obs.add("oracle.plan_cache.hits")
            return stored
        _obs.add("oracle.plan_cache.misses")

    t0 = _time.perf_counter()
    fwd = profile.fwd_times()
    bwd = profile.bwd_times()
    comm = profile.comm_time

    mode = _search_mode(prune, robust)
    state = _SearchState()
    if mode == "robust":
        _search_robust_pruned(
            fwd, bwd, comm, num_stages, num_micro_batches, comm_mode,
            state, robust,
        )
    elif mode == "robust_brute":
        _search_robust(
            fwd, bwd, comm, num_stages, num_micro_batches, comm_mode,
            state, robust,
        )
    elif mode == "analytic":
        _search_analytic(
            fwd, bwd, comm, num_stages, num_micro_batches, comm_mode,
            state,
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
    result = ExhaustiveResult(
        partition=PartitionScheme.from_sizes(state.best_sizes),
        sim=best_sim,
        evaluations=state.evaluations,
        search_seconds=_time.perf_counter() - t0,
        space=space,
        dominance_pruned=state.dominance_pruned,
        robust_value=state.best_time if robust is not None else None,
        incumbent_updates=state.incumbent_updates,
    )
    if plan_cache is not None and cache_key is not None:
        plan_cache.store(cache_key, result)
    return result
