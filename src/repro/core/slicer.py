"""AutoPipe Slicer: micro-batch slicing for startup-overhead reduction.

Algorithm 2 of the paper decides **how many** leading micro-batches to
split in half.  Slicing the first micro-batch alone already halves the
startup overhead (the last stage receives a half-sized activation after
half the forward time per stage); slicing a few more keeps the last stage
busy until the first *unbroken* micro-batch arrives, which matters for
deeper pipelines.

Transcription notes
-------------------
We implement the pseudocode literally with two documented fixes:

* The return test uses the **text's** condition ("once the start time of
  the unbroken micro-batch is greater than or equal to the end time of the
  second half of the split micro-batch, the algorithm returns"), i.e.
  ``tempt >= endt[0][1]``; the pseudocode's ``<=`` contradicts the prose
  and would return immediately for every pipeline.  With the prose
  condition the balanced 4-stage example of Fig. 8(b) yields ``mb = 1``
  (exactly the figure) and deeper pipelines slice more.
* Loop bounds are clamped to valid indices (the pseudocode indexes
  ``f[p-mb]`` and ``endt[i+1]`` at its boundary) and ``mb`` is capped at
  ``p - 1`` sliceable warmup micro-batches and at the available
  micro-batch count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro import _checks
from repro.core.partition import StageTimes


@dataclass(frozen=True)
class SlicePlan:
    """Which micro-batches the Slicer splits, and how.

    The first ``num_sliced`` micro-batches of the iteration are each split
    into two equal halves; both halves run as independent schedule units.
    ``aggregate_last_warmup_comm`` enables the paper's blockage fix: the
    first-half activation send of each stage's *last* warmup FP is
    cancelled and aggregated with the second half's send.
    """

    num_sliced: int
    num_micro_batches: int
    aggregate_last_warmup_comm: bool = True

    def __post_init__(self) -> None:
        _checks.count("num_sliced", self.num_sliced, 0)
        if self.num_sliced > self.num_micro_batches:
            raise ValueError(
                f"cannot slice {self.num_sliced} of "
                f"{self.num_micro_batches} micro-batches"
            )

    @property
    def sliced(self) -> Tuple[int, ...]:
        return tuple(range(self.num_sliced))

    def is_sliced(self, micro_batch: int) -> bool:
        return micro_batch < self.num_sliced

    @property
    def num_units(self) -> int:
        """Schedule units after expansion (each sliced micro-batch is two)."""
        return self.num_micro_batches + self.num_sliced

    def units(self) -> Tuple[Tuple[int, int], ...]:
        """Expanded unit sequence ``(micro_batch, half)``; half -1 = whole."""
        out = []
        for mb in range(self.num_micro_batches):
            if self.is_sliced(mb):
                out.append((mb, 0))
                out.append((mb, 1))
            else:
                out.append((mb, -1))
        return tuple(out)


def solve_slice_count(times: StageTimes, num_micro_batches: int) -> int:
    """Paper Algorithm 2: the number of leading micro-batches to slice.

    ``times`` holds the per-stage ``f_i``/``b_i`` of the partition scheme
    produced by the Planner plus the scalar ``Comm``.

    A micro-batch count that is no integer raises ``TypeError``, one
    below 1 ``ValueError``.  A stage with zero forward or backward time
    raises :class:`ValueError`: it would send the mb-growing loop chasing
    a startup overhead that does not exist.
    """
    num_micro_batches = _checks.count("num_micro_batches", num_micro_batches)
    p = times.num_stages
    f, b, comm = times.fwd, times.bwd, times.comm
    for name, vec in (("forward", f), ("backward", b)):
        for i, t in enumerate(vec):
            if t <= 0:
                raise ValueError(
                    f"stage {i} has non-positive {name} time {t!r}; "
                    "slice counts are undefined for zero-time stages"
                )
    max_mb = min(max(p - 1, 1), num_micro_batches)
    if p == 1:
        # A single stage has no startup overhead to hide.
        return 0

    # Lines 4-15: startt — BP-chain timestamps of the first sliced half.
    startt = [0.0] * p
    tempt = 0.0
    for i in range(p - 1):
        tempt += f[i] / 2 + comm / 2
    tempt += f[p - 1] / 2
    for i in range(p - 1, 0, -1):
        tempt += b[i] + comm
        startt[p - 1 - i] = tempt
    tempt += b[0]
    startt[p - 1] = tempt

    # Lines 16-37: grow mb until the first unbroken micro-batch arrives in
    # time.  endt[i][j]: end time of half j of the sliced stream at stage i.
    endt = [[0.0, 0.0] for _ in range(p + 1)]
    mb = 1
    while True:
        for i in range(0, min(p - mb, p - 1) + 1):
            for j in (0, 1):
                endt[i][j] = endt[i][(j + 1) % 2] + f[i] / 2
                if i > 0:
                    endt[i][j] = max(endt[i][j], endt[i - 1][j] + f[i - 1] / 2)
                if i != p - 1:
                    endt[i][j] += comm / 2
                endt[i][j] = max(endt[i][j], endt[i + 1][(j + 1) % 2])
        tempt = startt[mb - 1]
        for i in range(p - 1 - mb, 0, -1):
            tempt -= f[i] + comm
        tempt -= f[0]
        if tempt >= endt[0][1] or mb >= max_mb:
            return mb
        mb += 1


def make_slice_plan(
    times: StageTimes,
    num_micro_batches: int,
    *,
    aggregate_last_warmup_comm: bool = True,
) -> SlicePlan:
    """Solve Algorithm 2 and package the result as a :class:`SlicePlan`."""
    count = solve_slice_count(times, num_micro_batches)
    return SlicePlan(
        num_sliced=count,
        num_micro_batches=num_micro_batches,
        aggregate_last_warmup_comm=aggregate_last_warmup_comm,
    )
