"""Multiprocess exact search: sharded branch-and-bound over processes.

The oracle's branch-and-bound (``exhaustive.py``) runs on one core.
Its top level enumerates the *first stage's size*; the subtrees under
two different first sizes never share search state — the bounds and
slice tables are rebuildable pure functions of the block profile, and a
shard's dominance memo merely misses twins in other shards (pruning
less is exact) — so the search shards cleanly: one work item per
top-level cut position, fanned out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.

What keeps the sharded search both *fast* and *exact*:

* **Shared incumbent** — pruning power comes from the incumbent upper
  bound, and a worker that only knew its own shard's incumbent would
  prune like a cold serial search.  The cluster-wide best is shared
  through a :class:`SharedBound` (a ``multiprocessing.Value``): every
  worker publishes its local best and pulls the global minimum between
  scoring sweeps (``_SearchState.sync``), so late workers prune against
  the best incumbent any worker has found.  This is exact for the same
  reason warm seeds are: every published bound is a *simulated candidate
  time*, so a subtree pruned against it holds only candidates provably
  worse than the final optimum, and ties always survive because the
  prune test requires ``lb > bound * slack``.
* **Shared warm seeds** — the Algorithm-1 seed (and the planner's
  partition, when warm-started) is evaluated once in the parent and
  handed to every worker as ``preset_warm``, so no worker re-simulates
  it and every worker starts with the same incumbent the serial search
  would.
* **Deterministic merge** — each worker returns its shard's incumbent
  under the serial tie-break (min time, then lexicographically smallest
  sizes).  The ``offer`` rule is commutative and associative, and the
  shards partition the candidate space, so folding the shard results in
  *any* completion order reproduces the serial argmin bit for bit —
  including ``robust=`` mode, whose per-candidate objective values are
  independent of chunk composition (``robust_objective_batch`` is
  row-independent).  Property-tested in
  ``tests/core/test_parallel_search.py``.

Work items are submitted smallest-first-size first (the *largest*
subtrees: first size 1 leaves the most blocks to the remaining stages),
so dynamic scheduling keeps the tail short.  Environments that cannot
spawn processes (sandboxes without ``/dev/shm`` semaphores) raise
:class:`ParallelUnavailable`; callers fall back to the serial search —
the same policy as :class:`~repro.experiments.runner.SweepRunner`'s
inline fallback.

The module also hosts :class:`CandidatePool`, the planner's wave-level
evaluator behind ``plan_partition(jobs=)``, and the process-wide
``--plan-jobs`` default shared by every planning entry point.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.analytic_sim import PipelineSim, SimResult
from repro.core.partition import StageTimes
from repro.obs import telemetry as _obs


class ParallelUnavailable(RuntimeError):
    """Worker processes cannot be used here; run the serial search."""


class SharedBound:
    """Cluster-wide incumbent upper bound over a ``multiprocessing.Value``.

    ``publish`` folds a worker's incumbent into the global minimum with
    a compare-and-set under the value's lock; ``peek`` reads the current
    global bound.  The stored value only ever decreases, and every
    stored value is a simulated candidate time, so pruning against it is
    exact (see the module docstring).
    """

    def __init__(self, raw=None) -> None:
        self.raw = raw if raw is not None else mp.Value("d", float("inf"))

    def peek(self) -> float:
        with self.raw.get_lock():
            return self.raw.value

    def publish(self, t: float) -> float:
        """Fold ``t`` into the global bound; returns the new global."""
        with self.raw.get_lock():
            if t < self.raw.value:
                self.raw.value = t
            return self.raw.value


#: (payload, SharedBound) installed in each worker by the initializer.
_WORKER_CTX: Optional[Tuple[dict, SharedBound]] = None


def _init_worker(payload: dict, raw_bound) -> None:
    """Pool initializer: installs the search payload and shared bound.

    The synchronized ``Value`` can only cross the process boundary at
    spawn time (``initargs`` are handed to the worker ``Process``
    constructor), never through ``submit`` — which is why the bound
    rides here and the per-task argument is just the first-stage size.
    """
    global _WORKER_CTX
    _WORKER_CTX = (payload, SharedBound(raw_bound))


def _run_shard(first_size: int) -> dict:
    """Search the subtree of one top-level cut position (worker side).

    Runs the *serial* search routine restricted to candidates whose
    first stage holds ``first_size`` blocks, with a shard-local
    ``_SearchState`` wired to the shared bound.  Returns the shard's
    incumbent and counters; the parent folds them with ``offer``.
    """
    from repro.core import exhaustive as ex

    assert _WORKER_CTX is not None, "worker initializer did not run"
    payload, shared = _WORKER_CTX
    state = ex._SearchState(shared=shared)
    first = frozenset((first_size,))
    mode = payload["mode"]
    # Telemetry rides the payload as a directory path: workers record
    # into a private registry and append their spans to a pid-named
    # event file beside the shared incumbent; the parent merges those
    # files into per-worker trace lanes after the pool drains.  The
    # search itself never observes the registry (it only reads clocks),
    # so shard results are bit-identical with telemetry on or off.
    tel_dir = payload.get("telemetry_dir")
    tel = _obs.Telemetry(f"worker {os.getpid()}") if tel_dir else None

    def search() -> None:
        common = (
            payload["fwd"], payload["bwd"], payload["comm"],
            payload["num_stages"], payload["num_micro_batches"],
            payload["comm_mode"],
        )
        if mode == "analytic":
            ex._search_analytic(
                *common, None, state, payload["chunk_size"],
                payload["prune_slack"], (), first, payload["warm"],
            )
        elif mode == "robust":
            ex._search_robust_pruned(
                *common, state, payload["chunk_size"],
                payload["prune_slack"], payload["robust"], first,
            )
        elif mode == "robust_brute":
            ex._search_robust(
                *common, state, payload["chunk_size"],
                payload["robust"], first,
            )
        elif mode == "brute":
            ex._search_brute(*common, None, state, first)
        else:  # pragma: no cover - driver passes a fixed mode set
            raise ValueError(f"unknown search mode {mode!r}")

    if tel is not None:
        with _obs.session(tel):
            with tel.span("oracle.shard", first_size=first_size, mode=mode):
                search()
        tel.append_events(
            os.path.join(tel_dir, f"events-{os.getpid()}.jsonl")
        )
    else:
        search()
    state.sync()
    return {
        "first_size": first_size,
        "best_time": state.best_time,
        "best_sizes": state.best_sizes,
        "evaluations": state.evaluations,
        "dominance_pruned": state.dominance_pruned,
        "incumbent_updates": state.incumbent_updates,
        "pid": os.getpid(),
    }


def run_parallel_search(
    fwd: Sequence[float],
    bwd: Sequence[float],
    comm: float,
    num_stages: int,
    num_micro_batches: int,
    comm_mode: str,
    state,
    chunk_size: int,
    prune_slack: float,
    *,
    mode: str,
    jobs: int,
    warm: Optional[Dict[Tuple[int, ...], float]] = None,
    robust=None,
) -> Tuple[int, Tuple[int, ...]]:
    """Fan the sharded search out over ``jobs`` worker processes.

    ``state`` is the parent's ``_SearchState``, already seeded with the
    warm incumbents in ``warm`` (evaluated once, parent-side); shard
    results fold into it through the same ``offer`` rule the serial
    search uses.  Returns ``(workers_used, worker_subtrees)`` for the
    result's observability fields.  Raises :class:`ParallelUnavailable`
    when worker processes cannot be spawned (caller falls back to the
    serial search).
    """
    n = len(fwd)
    first_sizes = list(range(1, n - num_stages + 2))
    if not first_sizes:
        raise ValueError(
            f"cannot cut {n} blocks into {num_stages} stages"
        )
    jobs = max(1, min(jobs, len(first_sizes)))
    tel = _obs.current()
    tel_dir: Optional[str] = None
    if tel is not None:
        tel_dir = tempfile.mkdtemp(prefix="repro-obs-")
    payload = {
        "fwd": tuple(fwd),
        "bwd": tuple(bwd),
        "comm": comm,
        "num_stages": num_stages,
        "num_micro_batches": num_micro_batches,
        "comm_mode": comm_mode,
        "mode": mode,
        "chunk_size": chunk_size,
        "prune_slack": prune_slack,
        "warm": dict(warm) if warm else None,
        "robust": robust,
        "telemetry_dir": tel_dir,
    }
    bound = SharedBound()
    if state.best_time < float("inf"):
        bound.publish(state.best_time)
    per_pid: Dict[int, int] = {}
    t_d = tel.clock() if tel is not None else 0
    try:
        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=(payload, bound.raw),
        ) as pool:
            # Smallest first size = largest subtree; submitting those
            # first keeps the dynamic schedule's tail short.
            futures = [pool.submit(_run_shard, fs) for fs in first_sizes]
            for fut in futures:
                shard = fut.result()
                if shard["best_sizes"] is not None:
                    state.offer(shard["best_sizes"], shard["best_time"])
                state.evaluations += shard["evaluations"]
                state.dominance_pruned += shard["dominance_pruned"]
                state.incumbent_updates += shard["incumbent_updates"]
                per_pid[shard["pid"]] = per_pid.get(shard["pid"], 0) + 1
    except (OSError, PermissionError, BrokenProcessPool) as exc:
        if tel_dir is not None:
            shutil.rmtree(tel_dir, ignore_errors=True)
        raise ParallelUnavailable(
            f"worker pool unavailable ({exc!r}); run the serial search"
        ) from exc
    if tel is not None and tel_dir is not None:
        tel.record_since(
            "oracle.parallel_dispatch", t_d,
            jobs=len(per_pid), shards=len(first_sizes), mode=mode,
        )
        tel.merge_worker_dir(tel_dir)
        shutil.rmtree(tel_dir, ignore_errors=True)
    return len(per_pid), tuple(sorted(per_pid.values(), reverse=True))


# ---------------------------------------------------------------------------
# Planner-side wave evaluation (plan_partition(jobs=)).
# ---------------------------------------------------------------------------


def _simulate_candidate(
    times: StageTimes, num_micro_batches: int, comm_mode: str
) -> SimResult:
    """Worker task: one scalar simulation (pure, so bit-identical)."""
    return PipelineSim(times, num_micro_batches, comm_mode=comm_mode).run()


class CandidatePool:
    """Wave-parallel scalar evaluation of planner candidate schemes.

    ``plan_partition(jobs=)`` hands each expansion's master-shift wave
    (up to four candidate schemes) here; the pool simulates them
    concurrently and the planner consumes the results in the serial
    loop's order, so results, evaluation counts and history are
    bit-identical to the serial search (the scalar simulation is pure).
    The pool is created lazily on the first wave and degrades to inline
    evaluation permanently if worker processes are unavailable, mirroring
    :class:`~repro.experiments.runner.SweepRunner`'s fallback.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None
        self._broken = jobs <= 1

    def evaluate(
        self,
        waves: Sequence[StageTimes],
        num_micro_batches: int,
        comm_mode: str,
    ) -> List[SimResult]:
        """Simulate every candidate of one wave; inline on fallback."""
        if not self._broken and self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            except (OSError, PermissionError):
                self._broken = True
        if not self._broken and self._pool is not None and len(waves) > 1:
            try:
                futures = [
                    self._pool.submit(
                        _simulate_candidate, t, num_micro_batches, comm_mode
                    )
                    for t in waves
                ]
                return [f.result() for f in futures]
            except (OSError, PermissionError, BrokenProcessPool):
                self._broken = True
        return [
            _simulate_candidate(t, num_micro_batches, comm_mode)
            for t in waves
        ]

    @property
    def active(self) -> bool:
        """False once the pool degraded to permanent inline evaluation."""
        return not self._broken

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "CandidatePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Process-wide --plan-jobs default.
# ---------------------------------------------------------------------------

_DEFAULT_PLAN_JOBS = 1


def default_plan_jobs() -> int:
    """Worker processes used when callers pass ``jobs=None``."""
    return _DEFAULT_PLAN_JOBS


def set_default_plan_jobs(jobs: int) -> int:
    """Rebind the process-wide planning parallelism (CLI ``--plan-jobs``)."""
    global _DEFAULT_PLAN_JOBS
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError("plan jobs must be >= 1")
    _DEFAULT_PLAN_JOBS = jobs
    return jobs


def resolve_plan_jobs(jobs: Optional[int]) -> int:
    """Resolve a ``jobs=`` argument: ``None`` -> the process default."""
    if jobs is None:
        return _DEFAULT_PLAN_JOBS
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError("plan jobs must be >= 1")
    return jobs
