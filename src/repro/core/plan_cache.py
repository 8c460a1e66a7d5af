"""Persistent, content-addressed plan cache.

Heavy multi-user planning traffic re-solves the same (profile, cluster,
batch, knobs) plans over and over — across CLI invocations, sweep
processes and autotune layouts.  :class:`PlanCache` memoises finished
:class:`~repro.core.planner.PlannerResult` /
:class:`~repro.core.exhaustive.ExhaustiveResult` objects on disk so a
plan is never solved twice: a warm lookup deserialises the stored result
(sub-millisecond for these payloads) and runs **zero** simulations.

Key scheme (modeled on :class:`~repro.experiments.runner.SweepRunner`'s
on-disk memo):

* a cache **schema version** plus a **code fingerprint** — the SHA-256
  of the search-stack sources (``exhaustive.py``, ``planner.py``,
  ``analytic_sim.py``, ``balance_dp.py``) — so plans pickled by older
  code versions never replay silently as fresh results;
* the **profile hash**: SHA-256 of the :class:`ModelProfile` ``repr``,
  which captures every block time, memory statistic, the comm scalar,
  and the model/hardware/train configs (all frozen dataclasses with
  exact float reprs);
* the entry **kind** (``planner`` / ``exhaustive``), the pipeline depth
  and micro-batch count, and every search knob that callers can set.

Deliberately *excluded* from the key: ``jobs`` (the multiprocess oracle
is bit-identical to the serial search, so a plan solved at ``jobs=4``
must replay for a ``jobs=1`` caller and vice versa) and ``sim_cache``
(an in-process accelerator with no effect on results).

Values are pickles under ``cache_dir/<key>.pkl``, written atomically
(temp file + rename) so concurrent planners sharing a cache directory —
sweep pool workers, parallel CLI runs — never observe torn entries.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional

#: bump to invalidate every on-disk plan (cache layout changes).  "2":
#: ``SimResult`` pickles scalars and the critical path only (per-op times
#: are rebuilt lazily) and planner keys no longer carry ``incremental``.
_SCHEMA = "2"

#: search-stack sources folded into the code fingerprint: an edit to any
#: of these may change planned partitions or their reported statistics.
_FINGERPRINT_MODULES = (
    "repro.core.analytic_sim",
    "repro.core.balance_dp",
    "repro.core.exhaustive",
    "repro.core.planner",
    # The frontier kernel scores the default oracle path: a change to it
    # must invalidate cached plans exactly like a change to the search.
    "repro.sim.analytic",
)

_code_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over the search-stack source files (computed once)."""
    global _code_fingerprint
    if _code_fingerprint is None:
        h = hashlib.sha256()
        for module in _FINGERPRINT_MODULES:
            try:
                import importlib

                path = getattr(importlib.import_module(module), "__file__", None)
                h.update(Path(path).read_bytes() if path else b"no-source")
            except Exception:
                h.update(b"no-source")
        _code_fingerprint = h.hexdigest()
    return _code_fingerprint


def profile_hash(profile) -> str:
    """Content hash of one :class:`ModelProfile`.

    The ``repr`` of the frozen dataclass tree reproduces every float
    exactly (``repr(float)`` round-trips), so two profiles hash equal
    iff every statistic the planners consume is identical.
    """
    return hashlib.sha256(repr(profile).encode()).hexdigest()


class PlanCache:
    """On-disk memo of planner / oracle results, shared across processes."""

    def __init__(self, cache_dir: os.PathLike) -> None:
        self.cache_dir = Path(cache_dir)
        self.hits = 0
        self.misses = 0

    # -- keys --------------------------------------------------------------

    def _key(self, kind: str, profile, num_stages: int,
             num_micro_batches: int, **knobs) -> str:
        payload = "\0".join((
            _SCHEMA,
            code_fingerprint(),
            kind,
            profile_hash(profile),
            str(num_stages),
            str(num_micro_batches),
            repr(sorted(knobs.items())),
        ))
        return hashlib.sha256(payload.encode()).hexdigest()

    def planner_key(self, profile, num_stages: int, num_micro_batches: int,
                    **knobs) -> str:
        """Key of one ``plan_partition`` call (jobs/sim_cache excluded)."""
        return self._key("planner", profile, num_stages,
                         num_micro_batches, **knobs)

    def exhaustive_key(self, profile, num_stages: int,
                       num_micro_batches: int, **knobs) -> str:
        """Key of one ``exhaustive_partition`` call (jobs excluded)."""
        return self._key("exhaustive", profile, num_stages,
                         num_micro_batches, **knobs)

    # -- storage -----------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.pkl"

    def load(self, key: str, expect: Optional[type] = None):
        """The stored result for ``key``, or None.

        A hit replays the exact object the original search returned —
        partition, iteration time, search statistics and all — without
        running a single simulation.  ``expect`` guards against a stale
        or foreign pickle deserialising to the wrong type (treated as a
        miss).  Unreadable/corrupt entries are misses, never errors.
        """
        try:
            with open(self._path(key), "rb") as fh:
                value = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, ValueError,
                AttributeError, ImportError):
            self.misses += 1
            return None
        if expect is not None and not isinstance(value, expect):
            self.misses += 1
            return None
        self.hits += 1
        return value

    def store(self, key: str, value) -> None:
        """Atomically persist one result (temp file + rename)."""
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.cache_dir, prefix=".tmp-", suffix=".pkl"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def purge(self) -> int:
        """Delete every cached plan; returns how many were removed."""
        removed = 0
        if self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.cache_dir.is_dir():
            return 0
        return sum(1 for _ in self.cache_dir.glob("*.pkl"))


#: process-wide cache used when callers pass ``cache=None``; off unless
#: the CLI (--plan-cache-dir) or an embedding application binds one.
_DEFAULT_PLAN_CACHE: Optional[PlanCache] = None


def default_plan_cache() -> Optional[PlanCache]:
    """The process-wide :class:`PlanCache`, or None when caching is off."""
    return _DEFAULT_PLAN_CACHE


def set_default_plan_cache(cache: Optional[PlanCache]) -> Optional[PlanCache]:
    """Rebind the process-wide plan cache (CLI --plan-cache-dir)."""
    global _DEFAULT_PLAN_CACHE
    _DEFAULT_PLAN_CACHE = cache
    return cache


def resolve_plan_cache(cache) -> Optional[PlanCache]:
    """Resolve a ``cache=`` argument: None -> process default.

    Pass ``False`` to force caching off for one call even when a
    process-wide default is bound.
    """
    if cache is None:
        return _DEFAULT_PLAN_CACHE
    if cache is False:
        return None
    return cache
