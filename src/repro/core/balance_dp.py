"""Algorithm 1: dynamic program for a relatively balanced partition.

Given per-block weights (the paper uses ``f_i + b_i``) and a pipeline depth
``p``, find the contiguous partition into ``p`` non-empty groups minimising
the maximum group weight.  This is the classic min-max linear partition DP:

    time[i][j] = min_{k < i} max(time[k][j-1], prefix[i] - prefix[k])

:class:`BalanceTable` fills the table one column ``j`` at a time
(:func:`_vector_tables`): one ``max(time[k][j-1], prefix[i] - prefix[k])``
over a difference plane built once per table, with ``k >= i`` masked to
``+inf``, and a row-wise first-occurrence ``argmin``.  Because every
in-range candidate is finite and ``argmin`` returns the first minimum,
the chosen ``k`` is the smallest one realising the optimum.
:func:`_scalar_tables`, the original per-``(i, j)`` loop with a
vectorised inner minimisation, is kept verbatim as the reference:
``time`` and ``choice`` are bit-identical to its tables (property-tested
in ``tests/core/test_balance_dp_vectorized.py``).

The DP value for a prefix of the weights depends only on that prefix, so
one table over the full weight vector answers *every* ``(num_blocks,
stages)`` sub-query for free.  :class:`BalanceTable` exposes exactly
that: the planner's master-shift rebalances, the autotuner's per-depth
seeds and the repair fallbacks all reconstruct their partitions from one
shared ``O(n·p)``-build table instead of re-running the DP per query.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro import _checks
from repro.core.partition import PartitionScheme


def _scalar_tables(prefix: np.ndarray, n: int, p: int):
    """The original loop: reference for the vectorised column sweeps."""
    time = np.full((n + 1, p + 1), np.inf)
    choice = np.zeros((n + 1, p + 1), dtype=int)
    time[0][0] = 0.0
    for j in range(1, p + 1):
        # Group j spans blocks (k, i]; k ranges over j-1 .. i-1 so every
        # earlier group is non-empty.
        for i in range(j, n + 1):
            ks = np.arange(j - 1, i)
            cand = np.maximum(time[ks, j - 1], prefix[i] - prefix[ks])
            best = int(np.argmin(cand))
            time[i][j] = cand[best]
            choice[i][j] = ks[best]
    return time, choice


def _vector_tables(prefix: np.ndarray, n: int, p: int):
    """Column-at-a-time relaxation over the full ``(i, k)`` plane.

    The difference plane ``prefix[i] - prefix[k]`` is built once, with
    ``k >= i`` set to ``+inf`` by a broadcast comparison of two ranges
    (``np.triu_indices`` builds two index arrays, ~4x slower at n = 24);
    ``k < j-1`` candidates hit ``time[k][j-1] == inf``.  Each column is
    then one ``np.maximum`` into a scratch buffer, with the scalar loop's
    argument order, one ``argmin`` and one flat ``take`` of the minima.
    The tables are filled transposed, so that every column read and
    written is contiguous, and returned as transposed views.
    """
    time = np.full((p + 1, n + 1), np.inf)
    choice = np.zeros((p + 1, n + 1), dtype=int)
    time[0, 0] = 0.0
    diff = prefix[:, None] - prefix[None, :]
    k = np.arange(n + 1)
    np.putmask(diff, k[:, None] <= k, np.inf)
    scratch = np.empty_like(diff)
    flat = scratch.reshape(-1)
    row_start = k * (n + 1)
    for j in range(1, p + 1):
        cand = np.maximum(time[j - 1], diff[j:], out=scratch[j:])
        best = cand.argmin(axis=1)
        choice[j, j:] = best
        best += row_start[j:]
        time[j, j:] = flat.take(best)
    return time.T, choice.T


class BalanceTable:
    """Algorithm-1 DP tables over every prefix of one weight vector.

    ``time[i][j]`` / ``choice[i][j]`` cover the first ``i`` blocks split
    into ``j`` groups for all ``i <= num_blocks`` and ``j <=
    max_stages`` — the answer for a prefix only reads that prefix, so a
    single build serves every ``(num_blocks, stages)`` sub-query that
    callers (planner warm starts, layout enumeration, memory repair)
    would otherwise solve one DP at a time.  Queries read ``choice``
    through a list copy, which indexes faster than the array.
    """

    __slots__ = ("num_blocks", "max_stages", "time", "choice", "_rows")

    def __init__(self, weights: Sequence[float], max_stages: int) -> None:
        max_stages = _checks.count("max_stages", max_stages)
        n = len(weights)
        if n == 0:
            raise ValueError("cannot partition zero blocks")
        if max_stages > n:
            raise ValueError(
                f"pipeline depth {max_stages} exceeds block count {n}"
            )
        w = np.asarray(weights, dtype=float)
        _checks.reals("weights", w)
        self.num_blocks = n
        self.max_stages = max_stages
        prefix = np.concatenate(([0.0], np.cumsum(w)))
        self.time, self.choice = _vector_tables(
            prefix, self.num_blocks, max_stages
        )
        self._rows = self.choice.tolist()

    def _check_query(self, stages: int, num_blocks: Optional[int]) -> int:
        stages = _checks.count("stages", stages)
        n = self.num_blocks
        if num_blocks is not None:
            n = _checks.count("num_blocks", num_blocks)
        if not 0 < stages <= self.max_stages:
            raise ValueError(
                f"stages must be in 1..{self.max_stages}, got {stages}"
            )
        if not 0 < n <= self.num_blocks:
            raise ValueError(
                f"prefix must cover 1..{self.num_blocks} blocks, got {n}"
            )
        if stages > n:
            raise ValueError(
                f"pipeline depth {stages} exceeds block count {n}"
            )
        return n

    def sizes(
        self, stages: int, num_blocks: Optional[int] = None
    ) -> List[int]:
        """Group sizes of the min-max split of the first ``num_blocks``
        blocks (default: all of them) into ``stages`` groups."""
        i = self._check_query(stages, num_blocks)
        rows = self._rows
        out = [0] * stages
        for j in range(stages, 0, -1):
            k = rows[i][j]
            out[j - 1] = i - k
            i = k
        return out

    def bottleneck_value(
        self, stages: int, num_blocks: Optional[int] = None
    ) -> float:
        """The optimal max group weight of the same sub-query."""
        i = self._check_query(stages, num_blocks)
        return float(self.time[i][stages])

    def partition(
        self, stages: int, num_blocks: Optional[int] = None
    ) -> PartitionScheme:
        return PartitionScheme.from_sizes(self.sizes(stages, num_blocks))


def min_max_partition(weights: Sequence[float], p: int) -> List[int]:
    """Sizes of the min-max contiguous partition of ``weights`` into ``p`` groups.

    Returns the per-group element counts; ties are broken toward moving the
    cut as early as possible (argmin picks the smallest k), which keeps
    front stages no heavier than necessary.  Callers answering many
    prefix/depth queries over one weight vector should build a
    :class:`BalanceTable` instead of calling this in a loop.
    """
    return BalanceTable(weights, _checks.count("p", p)).sizes(p)


def balanced_partition(weights: Sequence[float], p: int) -> PartitionScheme:
    """Paper Algorithm 1 packaged as a :class:`PartitionScheme`."""
    return PartitionScheme.from_sizes(min_max_partition(weights, p))


def bottleneck(weights: Sequence[float], sizes: Sequence[int]) -> float:
    """Maximum group weight of a partition given as group sizes."""
    w = list(weights)
    sizes = [_checks.count("sizes", size) for size in sizes]
    if sum(sizes) != len(w):
        raise ValueError("sizes do not cover the weights")
    out = 0.0
    start = 0
    for size in sizes:
        out = max(out, sum(w[start:start + size]))
        start += size
    return out
