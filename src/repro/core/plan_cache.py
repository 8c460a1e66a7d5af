"""Persistent, content-addressed plan cache and the on-disk store it shares.

Heavy multi-user planning traffic re-solves the same (profile, cluster,
batch, knobs) plans over and over — across CLI invocations, sweep
processes and autotune layouts.  :class:`PlanCache` memoises finished
:class:`~repro.core.planner.PlannerResult` /
:class:`~repro.core.exhaustive.ExhaustiveResult` objects on disk so a
plan is never solved twice: a warm lookup deserialises the stored result
(sub-millisecond for these payloads) and runs **zero** simulations.

Key scheme:

* a cache **schema version** plus the **code fingerprint**
  (:func:`code_fingerprint`: SHA-256 over every source file of the
  ``repro`` package), so results computed by other code never replay
  silently as fresh ones;
* the **profile hash**: SHA-256 of the :class:`ModelProfile` ``repr``,
  which captures every block time, memory statistic, the comm scalar,
  and the model/hardware/train configs (all frozen dataclasses with
  exact float reprs);
* the entry **kind** (``planner`` / ``exhaustive``), the pipeline depth
  and micro-batch count, and every search knob that callers can set.

Deliberately *excluded* from the key: the planner's ``sim_cache`` (an
in-process accelerator with no effect on results).

Values live in a :class:`DiskStore`: pickles under
``cache_dir/<key>.pkl``, written atomically (temp file + rename) so
concurrent processes sharing a cache directory — CLI runs in several
shells, say — never observe torn entries.
:class:`~repro.experiments.runner.SweepRunner` keeps its sweep cells in
the same kind of store, keyed on the same fingerprint.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import List, Optional

#: bump to invalidate every on-disk plan (cache layout changes).  "2":
#: ``SimResult`` pickles scalars and the critical path only (per-op times
#: are rebuilt lazily) and planner keys no longer carry ``incremental``.
#: "3": ``ExhaustiveResult`` lost its lattice-scorer counter and oracle
#: keys no longer carry the deleted search-selection knobs.  "4":
#: ``PlannerResult`` and ``ExhaustiveResult`` lost their worker-process
#: fields when the multiprocess searches were removed.  "5": the oracle's
#: warm-start, chunk and slack settings and the planner's history switch
#: became fixed behaviour, so keys no longer carry them and every
#: ``PlannerResult`` records its history.  "6": ``ExhaustiveResult`` lost
#: ``cache_hits`` with the oracle's harvest of the shared simulation memo.
_SCHEMA = "6"

#: root of the ``repro`` package, whose sources :func:`code_fingerprint`
#: hashes.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent

_code_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over every ``repro/**/*.py`` source file (computed once).

    Each file contributes its package-relative path and the SHA-256 of
    its bytes, in path order, so an edit anywhere in the package —
    search, simulator, robustness draws or a cost model — changes every
    disk-cache key.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        h = hashlib.sha256()
        for path in sorted(
            _PACKAGE_ROOT.rglob("*.py"),
            key=lambda p: p.relative_to(_PACKAGE_ROOT).as_posix(),
        ):
            h.update(path.relative_to(_PACKAGE_ROOT).as_posix().encode())
            h.update(b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
        _code_fingerprint = h.hexdigest()
    return _code_fingerprint


class DiskStore:
    """Pickled values under ``cache_dir/<key>.pkl``, shared across processes.

    ``cache_dir=None`` is a store with no directory: every load misses
    and a purge removes nothing.
    """

    def __init__(self, cache_dir: Optional[os.PathLike]) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.pkl"

    def _entries(self) -> List[Path]:
        if self.cache_dir is None or not self.cache_dir.is_dir():
            return []
        return list(self.cache_dir.glob("*.pkl"))

    def load(self, key: str):
        """The stored value of ``key``, or None when it cannot be loaded.

        Unreadable, torn or corrupt entries are misses, never errors;
        ``AttributeError``/``ImportError`` cover pickles of classes that
        were since renamed or deleted.
        """
        if self.cache_dir is None:
            return None
        try:
            with open(self._path(key), "rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, ValueError,
                AttributeError, ImportError):
            return None

    def store(self, key: str, value) -> None:
        """Atomically persist one value (temp file + rename)."""
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
        """Delete every ``*.pkl`` entry; returns how many were removed.

        The CLI's ``--clear-cache``.  Other files in the directory are
        left alone, and a missing directory purges nothing.
        """
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def profile_hash(profile) -> str:
    """Content hash of one :class:`ModelProfile`.

    The ``repr`` of the frozen dataclass tree reproduces every float
    exactly (``repr(float)`` round-trips), so two profiles hash equal
    iff every statistic the planners consume is identical.
    """
    return hashlib.sha256(repr(profile).encode()).hexdigest()


class PlanCache(DiskStore):
    """On-disk memo of planner / oracle results, shared across processes."""

    def __init__(self, cache_dir: os.PathLike) -> None:
        super().__init__(cache_dir)
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
        """Key of one ``plan_partition`` call (sim_cache excluded)."""
        return self._key("planner", profile, num_stages,
                         num_micro_batches, **knobs)

    def exhaustive_key(self, profile, num_stages: int,
                       num_micro_batches: int, **knobs) -> str:
        """Key of one ``exhaustive_partition`` call."""
        return self._key("exhaustive", profile, num_stages,
                         num_micro_batches, **knobs)

    # -- storage -----------------------------------------------------------

    def load(self, key: str, expect: Optional[type] = None):
        """The stored result for ``key``, or None.

        A hit replays the exact object the original search returned —
        partition, iteration time, search statistics and all — without
        running a single simulation.  ``expect`` guards against a stale
        or foreign pickle deserialising to the wrong type (treated as a
        miss), as are unreadable or corrupt entries.
        """
        value = super().load(key)
        if value is None or (expect is not None
                             and not isinstance(value, expect)):
            self.misses += 1
            return None
        self.hits += 1
        return value

    def __len__(self) -> int:
        return len(self._entries())


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
