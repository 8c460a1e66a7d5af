"""The AutoPipe-sliced 1F1B schedule (paper Fig. 8(b)).

The Slicer's plan splits the first ``mb`` micro-batches into halves; each
half runs as an independent unit through the ordinary 1F1B structure, so
the last stage receives its first (half-sized) activation after roughly
half the per-stage forward time — the startup overhead is halved without
any extra in-flight activation memory (halves stash half the bytes).

Communication of the sliced halves uses the paper's aggregation fix: a
half's activation send is *buffered/eager* instead of synchronous, which is
the observable effect of "cancelling the first-half communication and
aggregating it with the second half" — the sender never blocks on a busy
downstream stage.  Building with ``aggregate=False`` keeps every transfer
synchronous and reproduces the warmup blockage the paper describes (the
ablation in the benchmarks).
"""

from __future__ import annotations

from repro.core.partition import PartitionScheme
from repro.core.slicer import SlicePlan
from repro.profiling.modelconfig import ModelProfile
from repro.schedules.base import Schedule, check_micro_batches
from repro.schedules.one_f_one_b import unit_schedule


def build_sliced(
    profile: ModelProfile,
    partition: PartitionScheme,
    plan: SlicePlan,
    *,
    name: str = "autopipe-sliced",
) -> Schedule:
    """Build the sliced 1F1B schedule from a Slicer plan."""
    check_micro_batches(plan.num_micro_batches)
    return unit_schedule(
        profile,
        partition,
        plan.units(),
        name=name,
        eager_halves=plan.aggregate_last_warmup_comm,
    )
