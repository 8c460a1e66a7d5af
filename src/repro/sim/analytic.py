"""Closed-form max-plus evaluation of 1F1B pipelines.

The 1F1B schedule over ``n`` stages and ``m`` micro-batches is a
*regular* lattice: every op's start is the max of its cross-stage
predecessor (plus comm) and its intra-stage predecessor.  Walking the
lattice op by op (:class:`~repro.core.analytic_sim.PipelineSim`) or
relaxing its compiled DAG (:mod:`repro.sim.graph_exec`) therefore does
``2*n*m`` tiny max/add steps per candidate.  This module collapses the
whole walk into ``O(n + m)`` *frontier* updates over a ``(n, K)`` matrix
of stage costs — ``K`` candidate partitions are scored by one sweep of
numpy row operations, with no event loop, no graph assembly and no
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
each update touches a row range of the ``(n, K)`` matrices.  The sweep
is three loops: warmup diagonals, one steady loop of *paired* steps,
and cooldown diagonals.

A paired step runs step ``t``'s B-half together with step ``t + 1``'s
F-half.  With frontier rows ``F[k]`` (stage ``k - 1``'s forward) and
``B[k]`` (stage ``k``'s backward), the B-half of stage ``k - 1`` reads
``F[k]`` (its own F) and ``B[k]`` (the cross B), and the F-half of
stage ``k`` reads the same ``F[k]`` (the cross F) and ``B[k]`` (its own
B).  Those rows all have parity ``n - t``; the B-half writes only
``B[k - 1]`` and the F-half only ``F[k + 1]``.  In paper mode one
``max(F[k], B[k]) + comm`` therefore feeds both writes: four numpy
calls per step instead of six.  Edges mode adds comm to the cross
operand, which differs between the halves, so it takes each half's max
separately in the same loop.  The steady loop runs on the frontier and the costs reordered
even rows first (:func:`_by_parity`), where every stride-2 row run is
one contiguous block; warmup and cooldown diagonals are contiguous in
stage order and run there.  Every step's slices, fix row and comm range
are precomputed once per ``(n, m)`` (:class:`_Plan`, in a bounded LRU).

The *fix rows*: the first steady F of a stage follows its last warmup
forward (not a backward), and the first cooldown B of a stage can trail
the warmup frontier; both are handled by one extra ``np.maximum``
against the stored forward frontier (exact, because the stale ``B``
entry is ``0.0`` and times are non-negative — both entry points reject
negative or non-finite inputs).

Bit-identity contract
---------------------

Every update uses the same IEEE max/add expressions, in the same
association order, as :class:`~repro.core.analytic_sim.PipelineSim`'s
scalar relaxation (both comm modes), so :func:`frontier_times` is
bit-for-bit equal to ``K`` scalar ``PipelineSim(...).run()`` iteration
times — property-tested in ``tests/sim/test_analytic.py``.

Applicability matrix
--------------------

====================================  =========================================
schedule / question                   evaluator
====================================  =========================================
plain 1F1B iteration times            :func:`frontier_times` (this module)
oracle candidate frontier (K at once) :func:`frontier_times_transposed`
robust draws, ``(K,)`` comm vectors   :func:`frontier_times` (vector comm)
per-stage peak memory                 :mod:`repro.parallel.memory_model`
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

from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from repro import _checks
from repro.hardware.cluster import Cluster
from repro.schedules.base import Schedule
from repro.sim.engine import (
    _COMPUTE,
    _EAGER,
    _RENDEZVOUS,
    ExecutionResult,
    check_device_map,
    lower_programs,
)

__all__ = [
    "AnalyticUnsupported",
    "frontier_times",
    "frontier_times_transposed",
    "execute_analytic",
]


class AnalyticUnsupported(RuntimeError):
    """The analytic executor cannot represent this schedule.

    Raised when direct clock propagation stalls (a communication wait
    cycle that only the event engine's diagnosis can untangle).  Re-run
    with ``executor="event"`` for a per-device deadlock report.
    """


def _as_cost_matrix(arr, name: str) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be a (K, num_stages) matrix")
    return out


def _check_inputs(fwd, bwd, comm, num_micro_batches, comm_mode):
    """Reject what :class:`PipelineSim` rejects; return ``comm`` (one
    float, or a ``(K,)`` per-row vector) and ``m`` as an int.

    Costs and comm must be finite and non-negative: the fix rows lean on
    non-negative times, and a NaN would flow through every max.
    """
    _checks.reals("fwd", fwd)
    _checks.reals("bwd", bwd)
    if np.ndim(comm) == 0:
        comm = float(comm)
        _checks.real("comm", comm)
    else:
        comm = np.ascontiguousarray(comm, dtype=np.float64)
        if comm.shape != (fwd.shape[-1],):
            raise ValueError(
                f"comm vector must have one entry per candidate row, "
                f"got shape {comm.shape} for {fwd.shape[-1]} rows"
            )
        _checks.reals("comm", comm)
    _checks.choice("comm_mode", comm_mode, _checks.COMM_MODES)
    return comm, _checks.count("num_micro_batches", num_micro_batches)


def frontier_times(
    fwd,
    bwd,
    comm,
    num_micro_batches: int,
    *,
    comm_mode: str = "paper",
) -> np.ndarray:
    """Iteration time of ``K`` 1F1B candidates from their stage costs.

    ``fwd`` / ``bwd`` are ``(K, num_stages)`` matrices of per-stage
    forward / backward times, one candidate per row; ``comm`` is a
    scalar or a ``(K,)`` per-candidate vector.  Returns a ``(K,)`` array
    of iteration times, bit-identical to ``K`` scalar
    ``PipelineSim(times_k, m).run()`` runs.  Both entry points reject
    what ``PipelineSim`` rejects: NaN, infinite or negative costs or
    comm, or a micro-batch count below 1, raise ``ValueError``; a count
    that is no integer raises ``TypeError``.
    """
    fwd = _as_cost_matrix(fwd, "fwd")
    bwd = _as_cost_matrix(bwd, "bwd")
    if fwd.shape != bwd.shape:
        raise ValueError(
            f"fwd and bwd must have matching shapes, got {fwd.shape} "
            f"and {bwd.shape}"
        )
    comm, m = _check_inputs(fwd.T, bwd.T, comm, num_micro_batches, comm_mode)
    return _sweep(
        np.ascontiguousarray(fwd.T),
        np.ascontiguousarray(bwd.T),
        comm,
        m,
        comm_mode,
    )


def frontier_times_transposed(
    fwd_t: np.ndarray,
    bwd_t: np.ndarray,
    comm,
    num_micro_batches: int,
    *,
    comm_mode: str = "paper",
) -> np.ndarray:
    """Stage-major frontier sweep: the oracle's zero-copy entry point.

    ``fwd_t`` / ``bwd_t`` are ``(num_stages, K)`` — each *row* is one
    stage's cost across all candidates, which is exactly how the oracle
    assembles its chunk matrices and how the sweep touches memory.
    Returns the ``(K,)`` iteration times, bitwise :func:`frontier_times`
    of the transposed matrices.
    """
    comm, m = _check_inputs(fwd_t, bwd_t, comm, num_micro_batches, comm_mode)
    return _sweep(fwd_t, bwd_t, comm, m, comm_mode)


#: Sweep plans keyed by ``(n, m)``: every step's row slices, fix row and
#: comm range, built once per shape (bounded LRU).
_PLAN_CACHE: "OrderedDict[Tuple[int, int], _Plan]" = OrderedDict()
_PLAN_CACHE_SIZE = 128


def _steady_stages(n: int, m: int, step: int) -> Optional[Tuple[int, int]]:
    """Stages ``lo, lo + 2, .., hi`` of steady step ``step``, or None.

    Step ``step`` runs stages ``x = n - 1 - d`` for ``d ≡ step (mod 2)``,
    ``d <= min(step, 2m - 2 - step, n - 1)``.
    """
    if not 0 <= step <= 2 * m - 2:
        return None
    parity = step & 1
    dmax = min(step, 2 * m - 2 - step, n - 1)
    if parity > dmax:
        return None
    return n - 1 - (dmax - ((dmax - parity) & 1)), n - 1 - parity


def _by_parity(a: np.ndarray) -> np.ndarray:
    """``a``'s rows reordered even rows first, then odd rows: every stride-2
    row run of ``a`` becomes a contiguous block."""
    return np.concatenate((a[0::2], a[1::2]))


class _Plan:
    """Everything of one ``(n, m)`` sweep that does not depend on costs.

    The steady loop runs on the frontier and costs reordered by
    :func:`_by_parity`, so each of its row runs is one contiguous block
    (a strided row view would cost numpy an iterator per call).  Warmup
    and cooldown run on stage order, whose diagonals are contiguous.
    """

    __slots__ = ("warmup", "steady", "cooldown")

    def __init__(self, n: int, m: int) -> None:
        evens = n // 2 + 1  # even frontier rows, k = 0 .. n

        def run(lo, hi, shift=0, frontier=True):
            """The block of rows ``lo + shift .. hi + shift`` (stride 2)."""
            lo, hi = lo + shift, hi + shift
            base = (evens if frontier else (n + 1) // 2) if lo & 1 else 0
            return slice(base + lo // 2, base + hi // 2 + 1)

        warmup = []
        for u in range(n - 1):
            lo = max(0, u - m + 1)
            warmup.append(
                (slice(lo, u + 1), slice(lo + 1, u + 2), u + 1 - lo, lo == 0)
            )
        self.warmup = tuple(warmup)

        def entry(b_rows, f_rows, fix):
            """Step p's B-half over rows ``b_rows`` and step p + 1's
            F-half over rows ``f_rows`` (``(lo, hi)`` ranges, or None).

            Frontier row k of the B-half is stage ``k - 1``'s own F and the
            cross B; it writes ``B[k - 1]``.  Row k of the F-half is the
            cross F and stage k's own B; it writes ``F[k + 1]``.  The two
            ranges share a parity and tile one run of ``size`` rows; each
            half is ``(part, src, dst, cost, count)``: its scratch rows
            within the run (None: all), the frontier rows it reads and
            writes, its cost rows and its row count.
            """
            spans = [r for r in (b_rows, f_rows) if r is not None]
            lo = min(r[0] for r in spans)
            hi = max(r[1] for r in spans)
            size = (hi - lo) // 2 + 1

            def half(rows, shift, cost_shift):
                a, b = (rows[0] - lo) // 2, (rows[1] - lo) // 2 + 1
                return (
                    None if (a, b) == (0, size) else slice(a, b),
                    run(*rows),
                    run(*rows, shift),
                    run(*rows, cost_shift, frontier=False),
                    b - a,
                )

            # Row k = 0 is stage 0's F (no cross predecessor) and k = n
            # stage n - 1's B (none either): both skip comm.  The fix row
            # is the run's first row, and F-only.
            first, last = lo == 0, hi == n
            comm_rows = slice(int(first), size - last)
            return (
                run(lo, hi), size,
                None if comm_rows == slice(0, size) else comm_rows,
                first, last,
                None if fix is None else run(fix, fix).start,
                None if b_rows is None else half(b_rows, -1, -1),
                None if f_rows is None else half(f_rows, 1, 0),
            )

        # Entry p pairs step p's B-half with step p + 1's F-half (p = -1
        # is step 0's F-half alone, p = 2m - 2 step 2m - 2's B-half
        # alone).  A stage's first steady forward trails its own last
        # warmup forward, not a backward: while ``step <= fix_lim`` the
        # top stage of the F-half gets an extra max against ``F[x + 1]``
        # (its B entry is still 0.0, so the plain maximum would
        # under-constrain; the fix is exact).
        fix_lim = min(m, n) - 1
        steady = []
        for p in range(-1, 2 * m - 1):
            b = _steady_stages(n, m, p)
            b_rows = None if b is None else (b[0] + 1, b[1] + 1)
            f_rows = _steady_stages(n, m, p + 1)
            fix = f_rows[0] + 1 if f_rows and p + 1 <= fix_lim else None
            if b_rows is not None or f_rows is not None:
                steady.append(entry(b_rows, f_rows, fix))
        self.steady = tuple(steady)

        # Symmetric fix rows: a stage's first cooldown backward can trail
        # the forward frontier while ``v <= n - 1``.
        cooldown = []
        for v in range(m, n + m - 1):
            lo = max(0, n - 1 - v)
            hi = min(n - 2, n + m - 2 - v)
            if lo <= hi:
                cooldown.append((
                    slice(lo, hi + 1), slice(lo + 1, hi + 2), hi - lo + 1,
                    run(lo + 1, lo + 1).start if v <= n - 1 else None,
                ))
        self.cooldown = tuple(cooldown)


def _plan(n: int, m: int) -> _Plan:
    key = (n, m)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = _Plan(n, m)
        _PLAN_CACHE[key] = plan
        if len(_PLAN_CACHE) > _PLAN_CACHE_SIZE:
            _PLAN_CACHE.popitem(last=False)
    else:
        _PLAN_CACHE.move_to_end(key)
    return plan


def _sweep(
    fwd: np.ndarray,
    bwd: np.ndarray,
    comm,
    m: int,
    comm_mode: str,
) -> np.ndarray:
    """The frontier kernel over stage-major ``(n, K)`` cost matrices.

    Warmup diagonals, then one loop of paired steady steps (step ``p``'s
    B-half with step ``p + 1``'s F-half), then cooldown diagonals.
    """
    n, num_cols = fwd.shape
    paper = comm_mode == "paper"
    plan = _plan(n, m)
    if np.ndim(comm) == 0:
        comm = np.array(comm)  # a 0-d array adds faster than a float

    # F[x + 1] = latest forward end of stage x (F[0] is a zero pad for
    # the "no cross predecessor" row); B[x] = latest backward end of
    # stage x (B[n] pads symmetrically).  Scratch is reused: every update
    # fills its rows before reading them.  Warmup fills F in stage order,
    # with B's buffer as its scratch.
    F = np.zeros((n + 1, num_cols))
    B = np.empty((n + 1, num_cols))
    for own, nxt, size, top in plan.warmup:
        t = B[:size]
        if paper:
            np.maximum(F[own], F[nxt], out=t)
            if top:
                t[1:] += comm
            else:
                t += comm
        else:
            np.add(F[own], comm, out=t)
            if top:
                t[0] = 0.0
            np.maximum(t, F[nxt], out=t)
        np.add(t, fwd[own], out=F[nxt])

    # The steady loop runs parity-ordered: every row run is a block.
    F = _by_parity(F)
    B.fill(0.0)
    fwd_p = _by_parity(fwd)
    bwd_p = _by_parity(bwd)
    tmp = np.empty((n // 2 + 1, num_cols))

    # -- steady: paired B- and F-halves over shared rows -------------------
    # Step p's B-half (stage k - 1 reads its own F[k] and the cross B[k])
    # and step p + 1's F-half (stage k reads the cross F[k] and its own
    # B[k]) read one run of rows k and write the disjoint rows B[k - 1]
    # and F[k + 1].  Paper mode shares one ``max(F[k], B[k]) + comm``
    # between both writes.  Edges mode adds comm to the cross operand,
    # which differs between the halves, so each half takes its own max
    # over its own rows (the run's end rows feed one half only).
    for rows, size, comm_rows, first, last, fix, b, f in plan.steady:
        if paper:
            t = tmp[:size]
            np.maximum(F[rows], B[rows], out=t)
            if fix is not None:
                np.maximum(t[0], F[fix], out=t[0])
            if comm_rows is None:
                t += comm
            else:
                t[comm_rows] += comm
            if b is not None:
                part, _, dst, cost, _ = b
                np.add(t if part is None else t[part], bwd_p[cost],
                       out=B[dst])
            if f is not None:
                part, _, dst, cost, _ = f
                np.add(t if part is None else t[part], fwd_p[cost],
                       out=F[dst])
        else:
            if b is not None:
                _, src, dst, cost, count = b
                t = tmp[:count]
                np.add(B[src], comm, out=t)
                if last:
                    t[-1] = 0.0
                np.maximum(t, F[src], out=t)
                np.add(t, bwd_p[cost], out=B[dst])
            if f is not None:
                _, src, dst, cost, count = f
                t = tmp[:count]
                np.add(F[src], comm, out=t)
                if first:
                    t[0] = 0.0
                np.maximum(t, B[src], out=t)
                if fix is not None:
                    np.maximum(t[0], F[fix], out=t[0])
                np.add(t, fwd_p[cost], out=F[dst])

    # -- cooldown: anti-diagonal v drains B(x, m - 1 - ...) ----------------
    # Back to stage order, with the parity-ordered B as scratch; the fix
    # rows read the parity-ordered F.  The steady buffers go first, so
    # the stage-order B does not raise the sweep's peak allocation.
    del fwd_p, bwd_p, tmp
    scratch = B
    B = np.empty_like(scratch)
    evens = n // 2 + 1
    B[0::2] = scratch[:evens]
    B[1::2] = scratch[evens:]
    for own, nxt, size, fix in plan.cooldown:
        t = scratch[:size]
        if paper:
            np.maximum(B[nxt], B[own], out=t)
            if fix is not None:
                np.maximum(t[0], F[fix], out=t[0])
            t += comm
        else:
            np.add(B[nxt], comm, out=t)
            np.maximum(t, B[own], out=t)
            if fix is not None:
                np.maximum(t[0], F[fix], out=t[0])
        np.add(t, bwd[own], out=B[own])

    return B[0].copy()


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
    device_map = check_device_map(n, cluster, device_map)
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
