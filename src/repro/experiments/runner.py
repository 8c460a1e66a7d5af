"""Experiment sweep runner with an on-disk result cache.

The paper-table and figure sweeps are grids of independent cells: every
(model, depth, micro-batch, method) cell plans and simulates on its
own.  :class:`SweepRunner` runs the cells in order in the calling
process and memoises finished cells on disk, so re-running ``report``
after an unrelated edit only recomputes cells whose cache key changed.

Cache-key scheme
----------------
A cell is identified by the SHA-256 of

* a schema version,
* the code fingerprint of the whole ``repro`` package
  (:func:`repro.core.plan_cache.code_fingerprint`), so an edit anywhere a
  cell's result may depend on — a cost model, the planner, the
  simulator — recomputes it,
* the cell function's dotted name (``module.qualname``), and
* the ``repr`` of the argument tuple (configs are frozen dataclasses
  with stable reprs).

Values live in the :class:`~repro.core.plan_cache.DiskStore` the plan
cache uses: pickles under ``cache_dir/<key>.pkl``, written atomically
(temp file + rename), so concurrent runners sharing a cache directory
never observe torn entries.  An entry that no longer loads — torn, or
pickling a class that has since been renamed or deleted — is a miss and
is recomputed.

Determinism
-----------
Every cell runs with the global ``random`` and legacy NumPy RNGs seeded
from a hash of the cell's identity (dotted function name + argument
repr), so a cell that consumes global randomness produces *bit-identical*
results whatever ran before it in the process, and when replayed from
the disk cache.  Cells using their own ``np.random.default_rng(seed)``
are unaffected.

Experiment modules resolve their runner through
:func:`default_runner` / :func:`set_default_runner`, which the CLI wires
to ``--cache-dir``.
"""

from __future__ import annotations

import hashlib
import os
import random
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.plan_cache import DiskStore, code_fingerprint
from repro.obs import telemetry as _obs

#: bump to invalidate every on-disk entry (cache layout changes).
_SCHEMA = "1"


def cell_seed(fn: Callable, cell: Tuple) -> int:
    """Deterministic per-cell RNG seed from the cell's identity.

    Derived from the dotted function name and the argument repr only —
    deliberately *not* the code fingerprint — so seeds survive
    unrelated edits and match across processes and cache generations.
    """
    payload = repr((
        getattr(fn, "__module__", "?"),
        getattr(fn, "__qualname__", repr(fn)),
        cell,
    ))
    return int.from_bytes(
        hashlib.sha256(payload.encode()).digest()[:8], "big"
    )


def _seeded_call(fn: Callable, cell: Tuple, seed: int):
    """Run one cell with the global RNGs seeded."""
    random.seed(seed)
    import numpy as np

    np.random.seed(seed % 2**32)
    return fn(*cell)


class SweepRunner(DiskStore):
    """Execute experiment cells in order, optionally cached on disk."""

    def __init__(self, *, cache_dir: Optional[os.PathLike] = None) -> None:
        super().__init__(cache_dir)
        self.cache_hits = 0
        self.cache_misses = 0

    def cell_key(self, fn: Callable, args: Tuple) -> str:
        """Content-hash key of one (function, args) cell."""
        payload = "\0".join((
            _SCHEMA,
            code_fingerprint(),
            f"{fn.__module__}.{fn.__qualname__}",
            repr(args),
        ))
        return hashlib.sha256(payload.encode()).hexdigest()

    # -- execution ---------------------------------------------------------

    def run(self, fn: Callable, cells: Sequence[Tuple]) -> List:
        """Evaluate ``fn(*cell)`` for every cell, in order.

        Cached cells are served from disk; the rest run inline and are
        written back to the cache.
        """
        tel = _obs.current()
        t0 = tel.clock() if tel is not None else 0
        hits0, misses0 = self.cache_hits, self.cache_misses
        cells = [tuple(c) for c in cells]
        results: List = [None] * len(cells)
        pending: List[int] = []
        keys: List[Optional[str]] = [None] * len(cells)
        if self.cache_dir is not None:
            for i, cell in enumerate(cells):
                keys[i] = self.cell_key(fn, cell)
                cached = self.load(keys[i])
                if cached is not None:
                    results[i] = cached
                    self.cache_hits += 1
                else:
                    pending.append(i)
                    self.cache_misses += 1
        else:
            pending = list(range(len(cells)))

        if pending:
            fresh = self._execute(fn, [cells[i] for i in pending])
            for i, value in zip(pending, fresh):
                results[i] = value
                if keys[i] is not None:
                    self.store(keys[i], value)
        if tel is not None:
            tel.record_since(
                "sweep.run", t0, cells=len(cells), executed=len(pending),
            )
            tel.add("sweep.cell_cache.hits", self.cache_hits - hits0)
            tel.add("sweep.cell_cache.misses", self.cache_misses - misses0)
        return results

    def _execute(self, fn: Callable, cells: List[Tuple]) -> List:
        tel = _obs.current()
        values: List = []
        for cell in cells:
            seed = cell_seed(fn, cell)
            if tel is None:
                values.append(_seeded_call(fn, cell, seed))
                continue
            t0 = tel.clock()
            values.append(_seeded_call(fn, cell, seed))
            tel.record_since("sweep.cell", t0, cell=repr(cell)[:80])
        return values


#: process-wide runner used when experiment entry points get none;
#: uncached by default, rebound by the CLI's --cache-dir.
_DEFAULT_RUNNER = SweepRunner()


def default_runner() -> SweepRunner:
    """The runner experiment modules use when none is passed."""
    return _DEFAULT_RUNNER


def set_default_runner(runner: SweepRunner) -> SweepRunner:
    """Rebind the process-wide runner (CLI --cache-dir); returns it."""
    global _DEFAULT_RUNNER
    _DEFAULT_RUNNER = runner
    return _DEFAULT_RUNNER
