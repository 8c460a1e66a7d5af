"""Closed-form max-plus evaluation of 1F1B pipelines.

The 1F1B schedule over ``n`` stages and ``m`` micro-batches is a
*regular* lattice: every op's start is the max of its cross-stage
predecessor (plus comm) and its intra-stage predecessor.  Walking the
lattice op by op (:class:`~repro.core.analytic_sim.PipelineSim`) or
relaxing its compiled DAG (:mod:`repro.sim.graph_exec`) therefore does
``2*n*m`` tiny max/add steps per candidate.  This module collapses the
whole walk into ``O(n + m)`` *frontier* updates over a ``(n, K)`` matrix
of stage costs — ``K`` candidate partitions are scored by one sweep of
fused numpy ops, with no event loop, no graph assembly and no
per-candidate Python objects.

Frontier recurrence
-------------------

Write ``F(x, j)`` / ``B(x, j)`` for the end time of stage ``x``'s
``j``-th forward / backward micro-batch.  1F1B orders each stage's ops
as ``w_x = min(m, n - 1 - x)`` warmup forwards, then ``m - w_x``
steady (F, B) pairs, then ``w_x`` cooldown backwards.  Three facts make
a frontier sweep possible:

* warmup forwards fill anti-diagonals: at warmup step ``u`` exactly the
  ops ``F(x, u - x)`` for ``max(0, u - m + 1) <= x <= u`` start, and
  each depends only on the *previous* frontier (``F(x-1, j)`` cross,
  ``F(x, j-1)`` intra);
* steady (F, B) pairs fill alternating anti-diagonals: at steady step
  ``t`` the stages ``x = n - 1 - d`` for ``d <= t``, ``d ≡ t (mod 2)``
  each run one F then one B, F depending on the neighbour's latest F
  (cross) and the stage's latest B (intra), B on the neighbour's latest
  B (cross) and the stage's *just-computed* F (intra);
* cooldown backwards drain anti-diagonals symmetrically to warmup.

So two rolling vectors — ``F[x]`` = latest forward end of stage ``x``,
``B[x]`` = latest backward end — carry the whole dependence state, and
each update touches a strided row range of the ``(n, K)`` matrices.
The *fix rows*: the first steady F of a stage follows its last warmup
forward (not a backward), and the first cooldown B of a stage can trail
the warmup frontier; both are handled by one extra ``np.maximum``
against the stored forward frontier (exact, because the stale ``B``
entry is ``0.0`` and times are non-negative).

Bit-identity contract
---------------------

Every update uses the same IEEE max/add expressions, in the same
association order, as :class:`~repro.core.analytic_sim.PipelineSim`'s
scalar relaxation (both comm modes), so :func:`frontier_times` is
bit-for-bit equal to ``PipelineSimBatch(...).iteration_times()`` —
property-tested in ``tests/sim/test_analytic.py``.

Applicability matrix
--------------------

====================================  =========================================
schedule / question                   evaluator
====================================  =========================================
plain 1F1B iteration + startup        :func:`frontier_times` (this module)
oracle candidate frontier (K at once) :func:`frontier_times_transposed`
robust draws, ``(K,)`` comm vectors   :func:`frontier_times` (vector comm)
per-stage busy / bubble / memory      :func:`stage_busy_times` /
                                      :func:`bubble_fractions` /
                                      :func:`peak_inflight_memory`
per-op critical path, master stage    :class:`~repro.core.analytic_sim.
                                      PipelineSim`, the exact scalar
                                      evaluator (the planner's shift loop
                                      consumes master stages; a frontier has
                                      none, and nominal shift waves average
                                      1.55 uncached candidates, too few to
                                      amortise a batched sweep)
DES semantics (rendezvous exchange,   :func:`execute_analytic` — direct clock
eager sends, memory ledger); 1f1b /   propagation over the lowered programs,
sliced / gpipe / interleaved          bit-identical to the event engine
cyclic comm, deadlocking programs     fall back to the event engine
                                      (:class:`~repro.sim.engine.Engine`);
                                      :func:`execute_analytic` raises
                                      :class:`AnalyticUnsupported`
====================================  =========================================
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.hardware.cluster import Cluster
from repro.schedules.base import Schedule
from repro.sim.engine import (
    _COMPUTE,
    _EAGER,
    _RENDEZVOUS,
    ExecutionResult,
    lower_programs,
)

__all__ = [
    "AnalyticUnsupported",
    "frontier_times",
    "frontier_times_transposed",
    "stage_busy_times",
    "bubble_fractions",
    "peak_inflight_memory",
    "execute_analytic",
]


class AnalyticUnsupported(RuntimeError):
    """The analytic executor cannot represent this schedule.

    Raised when direct clock propagation stalls (a communication wait
    cycle that only the event engine's diagnosis can untangle).  Re-run
    with ``executor="event"`` for a per-device deadlock report.
    """


#: Relative pad applied to the mid-sweep sieve limit: a column is only
#: dropped when its lower bound exceeds ``limit`` by more than float
#: rounding could account for, so optimal candidates always survive —
#: even under ``prune_slack=1.0`` exactness requirements.
_SIEVE_PAD = 1.0 + 1e-9

#: Only compact the working matrices when the sieve removed at least
#: this fraction of the surviving columns (copying costs a full pass).
_COMPACT_FRACTION = 0.10


def _as_cost_matrix(arr, name: str) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be a (K, num_stages) matrix")
    return out


def _check_comm(comm, k: int):
    """Validate/normalise comm like PipelineSimBatch: scalar or (K,)."""
    if np.ndim(comm) == 0:
        return float(comm)
    vec = np.ascontiguousarray(comm, dtype=np.float64)
    if vec.shape != (k,):
        raise ValueError(
            f"comm vector must have one entry per candidate row, "
            f"got shape {vec.shape} for {k} rows"
        )
    return vec


def frontier_times(
    fwd,
    bwd,
    comm,
    num_micro_batches: int,
    *,
    comm_mode: str = "paper",
    want_startup: bool = False,
):
    """Iteration time of ``K`` 1F1B candidates from their stage costs.

    ``fwd`` / ``bwd`` are ``(K, num_stages)`` matrices of per-stage
    forward / backward times (the :class:`PipelineSimBatch` layout);
    ``comm`` is a scalar or a ``(K,)`` per-candidate vector.  Returns a
    ``(K,)`` array of iteration times, bit-identical to
    ``PipelineSimBatch(fwd, bwd, comm, m).iteration_times()``; with
    ``want_startup=True`` also returns the ``(K,)`` startup overheads
    (when the last stage starts its first forward), matching
    ``.startup_overheads()``.
    """
    fwd = _as_cost_matrix(fwd, "fwd")
    bwd = _as_cost_matrix(bwd, "bwd")
    if fwd.shape != bwd.shape:
        raise ValueError(
            f"fwd and bwd must have matching shapes, got {fwd.shape} "
            f"and {bwd.shape}"
        )
    comm = _check_comm(comm, fwd.shape[0])
    times, startup, _ = _sweep(
        np.ascontiguousarray(fwd.T),
        np.ascontiguousarray(bwd.T),
        comm,
        num_micro_batches,
        comm_mode,
        want_startup=want_startup,
    )
    if want_startup:
        return times, startup
    return times


def frontier_times_transposed(
    fwd_t: np.ndarray,
    bwd_t: np.ndarray,
    comm,
    num_micro_batches: int,
    *,
    comm_mode: str = "paper",
    limit: Optional[float] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Stage-major frontier sweep: the oracle's zero-copy entry point.

    ``fwd_t`` / ``bwd_t`` are ``(num_stages, K)`` — each *row* is one
    stage's cost across all candidates, which is exactly how the oracle
    assembles its chunk matrices and how the sweep touches memory.

    ``limit`` arms the mid-sweep sieve: at a few frontier checkpoints a
    per-column lower bound (finished-frontier state + remaining work +
    comm and drain chains) discards candidates that provably exceed
    ``limit`` (padded by :data:`_SIEVE_PAD`, so rounding can never drop
    a true optimum).  Returns ``(times, keep)`` where ``times`` are the
    surviving columns' iteration times — bitwise equal to the unsieved
    sweep's values at those columns — and ``keep`` maps them back to
    input column indices (``None`` when no sieve ran).
    """
    times, _, keep = _sweep(
        fwd_t, bwd_t, _check_comm(comm, fwd_t.shape[1]),
        num_micro_batches, comm_mode, limit=limit,
    )
    return times, keep


def _sweep(
    fwd: np.ndarray,
    bwd: np.ndarray,
    comm,
    m: int,
    comm_mode: str,
    *,
    want_startup: bool = False,
    limit: Optional[float] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """The frontier kernel over stage-major ``(n, K)`` cost matrices."""
    if comm_mode not in ("paper", "edges"):
        raise ValueError(f"unknown comm_mode {comm_mode!r}")
    if m < 1:
        raise ValueError("need at least one micro-batch")
    if want_startup and limit is not None:
        raise ValueError("the sieve cannot preserve startup overheads")
    n, num_cols = fwd.shape
    paper = comm_mode == "paper"
    vec_comm = np.ndim(comm) == 1

    # F[x + 1] = latest forward end of stage x (F[0] is a zero pad for
    # the "no cross predecessor" row); B[x] = latest backward end of
    # stage x (B[n] pads symmetrically).  tF/tB are reusable scratch.
    F = np.zeros((n + 1, num_cols))
    B = np.zeros((n + 1, num_cols))
    tF = np.empty((n, num_cols))
    tB = np.empty((n, num_cols))
    keep: Optional[np.ndarray] = None
    drain: Optional[np.ndarray] = None
    startup = None

    if limit is not None:
        keep = np.arange(num_cols)
        # Static drain chain: once stage x finishes, the final backward
        # still has to traverse stages x-1 .. 0 — at least one backward
        # plus one comm hop per stage.  Computed once, compacted along
        # with the cost matrices.
        drain = np.empty_like(bwd)
        drain[0] = 0.0
        np.cumsum(bwd[:-1], axis=0, out=drain[1:])
        drain += np.arange(n, dtype=np.float64)[:, None] * comm

    def _rem_counts(step_f: int, step_b: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-stage remaining forward/backward counts, closed-form.

        ``step_f``/``step_b`` are the last completed steady steps of the
        forward and backward halves — they differ by one inside the
        fused middle phase, where F runs a half-step ahead of B.  Using
        one matched step against the advanced F rows would double-count
        the forward just completed and over-prune.
        """
        d = np.arange(n - 1, -1, -1)
        steady = m - np.minimum(m, d)
        done_f = np.where(
            step_f >= d, np.minimum((step_f - d) // 2 + 1, steady), 0
        )
        done_b = np.where(
            step_b >= d, np.minimum((step_b - d) // 2 + 1, steady), 0
        )
        return (
            (steady - done_f).astype(np.float64)[:, None],
            (m - done_b).astype(np.float64)[:, None],
        )

    def sieve(step: int) -> None:
        """Drop columns whose lower bound exceeds the limit.

        ``step`` is the last completed steady step (``-1`` right after
        warmup).  For each stage the number of finished steady pairs is
        closed-form, so "remaining work" needs no simulation state.
        """
        nonlocal F, B, tF, tB, fwd, bwd, drain, keep, comm
        rem_f, rem_b = _rem_counts(step, step)
        lb = np.maximum(F[1:], B[:n])
        lb += rem_f * fwd
        lb += rem_b * bwd
        lb += drain
        mask = lb.max(axis=0) <= limit * _SIEVE_PAD
        survivors = int(mask.sum())
        if survivors >= keep.size * (1.0 - _COMPACT_FRACTION):
            return
        F = np.ascontiguousarray(F[:, mask])
        B = np.ascontiguousarray(B[:, mask])
        fwd = np.ascontiguousarray(fwd[:, mask])
        bwd = np.ascontiguousarray(bwd[:, mask])
        drain = np.ascontiguousarray(drain[:, mask])
        keep = keep[mask]
        tF = np.empty((n, survivors))
        tB = np.empty((n, survivors))
        if vec_comm:
            comm = comm[mask]

    # -- warmup: anti-diagonal u starts F(x, u - x) ------------------------
    for u in range(n - 1):
        lo = u - m + 1
        if lo < 0:
            lo = 0
        t = tF[:u + 1 - lo]
        if paper:
            np.maximum(F[lo:u + 1], F[lo + 1:u + 2], out=t)
            if lo == 0:
                t[1:] += comm
            else:
                t += comm
        else:
            np.add(F[lo:u + 1], comm, out=t)
            if lo == 0:
                t[0] = 0.0
            np.maximum(t, F[lo + 1:u + 2], out=t)
        np.add(t, fwd[lo:u + 1], out=F[lo + 1:u + 2])

    if limit is not None:
        sieve(-1)
        checkpoints = set()
        for q in (n + 1, n + 7, (2 * m - 2) // 2, 3 * (2 * m - 2) // 4):
            if 0 < q < 2 * m - 2:
                checkpoints.add(q)
    else:
        checkpoints = ()

    # -- steady: alternating anti-diagonals of (F, B) pairs ----------------
    # A stage's first steady forward may trail its *own last warmup
    # forward* rather than a backward; while ``step <= fix_lim`` the top
    # stage of the diagonal is in that situation and gets an extra max
    # against the stored forward frontier (its B entry is still 0.0, so
    # the plain maximum would under-constrain; the fix is exact).
    fix_lim = m - 1 if m - 1 < n - 1 else n - 1

    def _diag(step: int):
        parity = step & 1
        dmax = step
        if 2 * m - 2 - step < dmax:
            dmax = 2 * m - 2 - step
        if n - 1 < dmax:
            dmax = n - 1
        if parity > dmax:
            return None
        dtop = dmax - ((dmax - parity) & 1)
        lo = n - 1 - dtop
        hi = n - 1 - parity
        return lo, hi

    def f_part(step: int) -> None:
        nonlocal startup
        d = _diag(step)
        if d is None:
            return
        lo, hi = d
        X = slice(lo, hi + 1, 2)
        X1 = slice(lo + 1, hi + 2, 2)
        a = tF[:(hi - lo) // 2 + 1]
        if paper:
            np.maximum(F[X], B[X], out=a)
            if step <= fix_lim:
                np.maximum(a[0], F[n - step], out=a[0])
            if lo == 0:
                a[1:] += comm
            else:
                a += comm
        else:
            np.add(F[X], comm, out=a)
            if lo == 0:
                a[0] = 0.0
            np.maximum(a, B[X], out=a)
            if step <= fix_lim:
                np.maximum(a[0], F[n - step], out=a[0])
        if step == 0 and want_startup:
            startup = a[0].copy()
        np.add(a, fwd[X], out=F[X1])

    def b_part(step: int) -> None:
        d = _diag(step)
        if d is None:
            return
        lo, hi = d
        X = slice(lo, hi + 1, 2)
        X1 = slice(lo + 1, hi + 2, 2)
        b = tB[:(hi - lo) // 2 + 1]
        if paper:
            np.maximum(F[X1], B[X1], out=b)
            if hi == n - 1:
                b[:-1] += comm
            else:
                b += comm
        else:
            np.add(B[X1], comm, out=b)
            if hi == n - 1:
                b[-1] = 0.0
            np.maximum(b, F[X1], out=b)
        np.add(b, bwd[X], out=B[X])

    # The fused middle phase (paper mode, even ``n``): once every steady
    # diagonal is full (``dmax == n - 1``) and past the fix rows, the
    # B-half of step ``t`` and the F-half of step ``t + 1`` read the max
    # frontier ``max(F[r], B[r])`` over the SAME row parity — as do the
    # F-half of ``t + 2`` and the B-half of ``t + 1`` on the other
    # parity.  Interleaving the halves (each pair's reads are disjoint
    # from its partner's writes, so the dataflow is unchanged) lets one
    # ``np.maximum`` and one shared ``+ comm`` serve two half-steps, on
    # parity-split contiguous arrays.  Every element still flows through
    # the identical ``max -> (+ comm) -> + cost`` expression, so the
    # fused phase is bit-identical to the per-step halves it replaces.
    fuse_lo = n if n > fix_lim + 1 else fix_lim + 1
    fuse_lo += fuse_lo & 1
    fuse_hi = 2 * m - n - 1
    use_fused = paper and n >= 4 and n % 2 == 0 and fuse_lo + 2 <= fuse_hi

    if not use_fused:
        for step in range(2 * m - 1):
            f_part(step)
            b_part(step)
            if step in checkpoints:
                sieve(step)
    else:
        for step in range(fuse_lo):
            f_part(step)
            b_part(step)
            if step in checkpoints:
                sieve(step)
        f_part(fuse_lo)
        h = n // 2
        Fe = np.ascontiguousarray(F[0::2])   # rows 0, 2, .., n
        Fo = np.ascontiguousarray(F[1::2])   # rows 1, 3, .., n - 1
        Be = np.ascontiguousarray(B[0::2])
        Bo = np.ascontiguousarray(B[1::2])
        fwd_e = np.ascontiguousarray(fwd[0::2])   # stages 0, 2, .., n - 2
        fwd_o = np.ascontiguousarray(fwd[1::2])   # stages 1, 3, .., n - 1
        bwd_e = np.ascontiguousarray(bwd[0::2])
        bwd_o = np.ascontiguousarray(bwd[1::2])
        if limit is not None:
            drain_e = np.ascontiguousarray(drain[0::2])
            drain_o = np.ascontiguousarray(drain[1::2])
            cps = sorted(c for c in checkpoints if c >= fuse_lo)
        else:
            drain_e = drain_o = None
            cps = []
        k_now = Fe.shape[1]
        Me = np.empty((h + 1, k_now))
        Mo = np.empty((h, k_now))
        tmid = np.empty((h - 1, k_now))

        def sieve_fused(t: int) -> None:
            """The sieve on the split state: F through ``t``, B ``t-1``."""
            nonlocal Fe, Fo, Be, Bo, fwd_e, fwd_o, bwd_e, bwd_o
            nonlocal drain_e, drain_o, keep, comm, Me, Mo, tmid, k_now
            rem_f, rem_b = _rem_counts(t, t - 1)
            # Even stages read (F odd rows, B even rows) and vice versa.
            lb = np.maximum(Fo, Be[:h])
            lb += rem_f[0::2] * fwd_e
            lb += rem_b[0::2] * bwd_e
            lb += drain_e
            colmax = lb.max(axis=0)
            lb = np.maximum(Fe[1:], Bo)
            lb += rem_f[1::2] * fwd_o
            lb += rem_b[1::2] * bwd_o
            lb += drain_o
            np.maximum(colmax, lb.max(axis=0), out=colmax)
            mask = colmax <= limit * _SIEVE_PAD
            survivors = int(mask.sum())
            if survivors >= keep.size * (1.0 - _COMPACT_FRACTION):
                return
            Fe = np.ascontiguousarray(Fe[:, mask])
            Fo = np.ascontiguousarray(Fo[:, mask])
            Be = np.ascontiguousarray(Be[:, mask])
            Bo = np.ascontiguousarray(Bo[:, mask])
            fwd_e = np.ascontiguousarray(fwd_e[:, mask])
            fwd_o = np.ascontiguousarray(fwd_o[:, mask])
            bwd_e = np.ascontiguousarray(bwd_e[:, mask])
            bwd_o = np.ascontiguousarray(bwd_o[:, mask])
            drain_e = np.ascontiguousarray(drain_e[:, mask])
            drain_o = np.ascontiguousarray(drain_o[:, mask])
            keep = keep[mask]
            if vec_comm:
                comm = comm[mask]
            k_now = survivors
            Me = np.empty((h + 1, k_now))
            Mo = np.empty((h, k_now))
            tmid = np.empty((h - 1, k_now))

        t = fuse_lo
        while t + 2 <= fuse_hi:
            if cps and t - 1 >= cps[0]:
                while cps and t - 1 >= cps[0]:
                    cps.pop(0)
                sieve_fused(t)
            # B-half of t + F-half of t + 1: even-row frontier.
            np.maximum(Fe, Be, out=Me)
            np.add(Me[1:h], comm, out=tmid)
            np.add(Me[0], fwd_e[0], out=Fo[0])
            np.add(tmid, fwd_e[1:], out=Fo[1:])
            np.add(tmid, bwd_o[:-1], out=Bo[:-1])
            np.add(Me[h], bwd_o[-1], out=Bo[-1])
            # F-half of t + 2 + B-half of t + 1: odd-row frontier.
            np.maximum(Fo, Bo, out=Mo)
            np.add(Mo, comm, out=Mo)
            np.add(Mo, fwd_o, out=Fe[1:])
            np.add(Mo, bwd_e, out=Be[:h])
            t += 2
        # Completed: F-halves through ``t``, B-halves through ``t - 1``.
        if k_now != F.shape[1]:
            F = np.empty((n + 1, k_now))
            B = np.empty((n + 1, k_now))
            fwd = np.empty((n, k_now))
            bwd = np.empty((n, k_now))
            drain = np.empty((n, k_now))
            fwd[0::2] = fwd_e
            fwd[1::2] = fwd_o
            bwd[0::2] = bwd_e
            bwd[1::2] = bwd_o
            drain[0::2] = drain_e
            drain[1::2] = drain_o
            tF = np.empty((n, k_now))
            tB = np.empty((n, k_now))
        F[0::2] = Fe
        F[1::2] = Fo
        B[0::2] = Be
        B[1::2] = Bo
        b_part(t)
        if cps and cps[0] <= t:
            cps = [c for c in cps if c > t]
            sieve(t)
        for step in range(t + 1, 2 * m - 1):
            f_part(step)
            b_part(step)
            if step in checkpoints and step > t:
                sieve(step)

    # -- cooldown: anti-diagonal v drains B(x, m - 1 - ...) ----------------
    # Symmetric fix rows: a stage's first cooldown backward can trail
    # the forward frontier while ``v <= n - 1``.
    for v in range(m, n + m - 1):
        lo = n - 1 - v
        if lo < 0:
            lo = 0
        hi = n + m - 2 - v
        if hi > n - 2:
            hi = n - 2
        if lo > hi:
            continue
        t = tB[:hi - lo + 1]
        if paper:
            np.maximum(B[lo + 1:hi + 2], B[lo:hi + 1], out=t)
            if v <= n - 1:
                np.maximum(t[0], F[lo + 1], out=t[0])
            t += comm
        else:
            np.add(B[lo + 1:hi + 2], comm, out=t)
            np.maximum(t, B[lo:hi + 1], out=t)
            if v <= n - 1:
                np.maximum(t[0], F[lo + 1], out=t[0])
        np.add(t, bwd[lo:hi + 1], out=B[lo:hi + 1])

    return B[0].copy(), startup, keep


# -- per-stage summary helpers ----------------------------------------------


def stage_busy_times(fwd, bwd, num_micro_batches: int) -> np.ndarray:
    """Per-stage compute-busy seconds, ``(K, num_stages)``.

    Mirrors :meth:`~repro.core.analytic_sim.SimResult.stage_busy_time`:
    every stage runs each micro-batch's forward and backward exactly
    once, so busy time is ``m * (f + b)`` regardless of schedule gaps.
    """
    fwd = _as_cost_matrix(fwd, "fwd")
    bwd = _as_cost_matrix(bwd, "bwd")
    return num_micro_batches * (fwd + bwd)


def bubble_fractions(
    fwd, bwd, iteration_times, num_micro_batches: int
) -> np.ndarray:
    """Per-stage idle fraction, ``(K, num_stages)``.

    ``iteration_times`` is the ``(K,)`` output of
    :func:`frontier_times`; non-positive iteration times report ``0.0``
    idle, like :meth:`SimResult.bubble_fraction`.
    """
    busy = stage_busy_times(fwd, bwd, num_micro_batches)
    it = np.asarray(iteration_times, dtype=np.float64)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = 1.0 - busy / it
    return np.where(it > 0, frac, 0.0)


def peak_inflight_memory(
    static, stash, workspace, num_micro_batches: int
) -> np.ndarray:
    """Peak per-stage memory of ``K`` candidates, ``(K, num_stages)``.

    Closed form of the 1F1B in-flight bound the planner's memory filter
    uses (``_UnitSpace.stage_memory``): stage ``s`` holds at most
    ``min(m, n - s)`` stashed activations at once, on top of its static
    parameter/optimizer bytes and one transient workspace.  ``static`` /
    ``stash`` are per-stage *sums* over the stage's blocks and
    ``workspace`` the per-stage *max*, all ``(K, num_stages)``.
    """
    static = _as_cost_matrix(static, "static")
    stash = _as_cost_matrix(stash, "stash")
    workspace = _as_cost_matrix(workspace, "workspace")
    n = static.shape[1]
    in_flight = np.minimum(
        num_micro_batches, n - np.arange(n, dtype=np.float64)
    )
    return static + in_flight * stash + workspace


# -- direct clock propagation over lowered programs -------------------------


def execute_analytic(
    schedule: Schedule,
    cluster: Cluster,
    *,
    device_map: Optional[List[int]] = None,
) -> ExecutionResult:
    """Execute a schedule by direct clock propagation — no event loop.

    Walks each device's lowered instruction tuples in program order,
    propagating per-device clocks through rendezvous pairings and eager
    deposits until a fixed point.  Every clock update uses the same IEEE
    expressions as :class:`~repro.sim.engine.Engine`, and the dataflow
    is deterministic, so the result — iteration time, per-device events,
    memory peaks, OOM flags — is bit-identical to the event engine for
    every schedule the engine can complete (property-tested).

    Programs that cannot reach the fixed point (a communication wait
    cycle) raise :class:`AnalyticUnsupported`; fall back to
    ``executor="event"`` for the engine's per-device deadlock diagnosis.
    """
    n = schedule.num_devices
    if device_map is None:
        device_map = list(range(n))
    if len(device_map) != n:
        raise ValueError("device_map must cover every schedule device")
    for d in device_map:
        cluster._check(d)
    programs = lower_programs(schedule, cluster, device_map)

    pc = [0] * n
    clock = [0.0] * n
    held = [0.0] * n
    peak = [0.0] * n
    posts = {}      # (pair, tag_set) -> (device, ready_time)
    deposits = {}   # eager tag -> arrival time
    events: List[tuple] = []
    remaining = sum(len(p) for p in programs)

    while remaining:
        progressed = False
        for dev in range(n):
            program = programs[dev]
            while pc[dev] < len(program):
                instr = program[pc[dev]]
                code = instr[0]

                if code == _COMPUTE:
                    _, label, duration, alloc, free, workspace, kind, phase \
                        = instr
                    start = clock[dev]
                    end = start + duration
                    h = held[dev] + alloc
                    if h + workspace > peak[dev]:
                        peak[dev] = h + workspace
                    held[dev] = h - free
                    clock[dev] = end
                    events.append((dev, kind, label, start, end, phase))

                elif code == _RENDEZVOUS:
                    _, label, key, _peer, exch = instr
                    posted = posts.get(key)
                    if posted is None or posted[0] == dev:
                        if posted is None:
                            posts[key] = (dev, clock[dev])
                        break  # parked until the peer arrives
                    peer, peer_ready = posted
                    del posts[key]
                    start = max(clock[dev], peer_ready)
                    end = start + exch
                    clock[dev] = end
                    clock[peer] = end
                    pc[peer] += 1
                    remaining -= 1
                    progressed = True
                    events.append((dev, "comm", label, start, end, ""))
                    events.append((peer, "comm", label, start, end, ""))

                else:  # _EAGER
                    _, label, recvs, sends, wait_label, latency = instr
                    start = clock[dev]
                    t = start
                    comm_begin = start
                    if recvs:
                        arrivals = []
                        missing = False
                        for tag, _dur in recvs:
                            arrival = deposits.get(tag)
                            if arrival is None:
                                missing = True
                                break
                            arrivals.append(arrival)
                        if missing:
                            break  # parked until the deposit lands
                        for tag, _dur in recvs:
                            del deposits[tag]
                        t = max(start, *arrivals)
                        if t > start:
                            comm_begin = max(
                                start,
                                min(
                                    arrival - dur
                                    for (_tag, dur), arrival
                                    in zip(recvs, arrivals)
                                ),
                            )
                            if comm_begin > start:
                                events.append(
                                    (dev, "idle", wait_label,
                                     start, comm_begin, "")
                                )
                    if sends:
                        for tag, dur in sends:
                            deposits[tag] = t + dur
                        t += latency
                    clock[dev] = t
                    events.append((dev, "comm", label, comm_begin, t, ""))

                pc[dev] += 1
                remaining -= 1
                progressed = True
        if remaining and not progressed:
            blocked = [
                f"dev{d}: op {pc[d]}/{len(programs[d])} "
                f"{programs[d][pc[d]][1]}"
                for d in range(n) if pc[d] < len(programs[d])
            ]
            raise AnalyticUnsupported(
                "clock propagation stalled (communication wait cycle): "
                + "; ".join(blocked)
                + " — re-run with executor='event' for a full diagnosis"
            )

    iteration_time = max((e[4] for e in events), default=0.0)
    peaks = [schedule.static_bytes[d] + peak[d] for d in range(n)]
    capacity = cluster.hw.gpu_memory
    ooms = [d for d in range(n) if peaks[d] > capacity]
    return ExecutionResult(
        schedule_name=schedule.name,
        iteration_time=iteration_time,
        peak_memory=peaks,
        oom_devices=ooms,
        num_devices=n,
        raw_events=events,
    )
