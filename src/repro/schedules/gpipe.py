"""GPipe schedule: all forwards, then all backwards.

Included as a secondary baseline/teaching schedule: it maximises bubble
time at small micro-batch counts and stashes *every* micro-batch (memory
grows with ``m``), which is why 1F1B replaced it.  Communication is
buffered (GPipe's fill-drain pattern has no bidirectional pairing).
"""

from __future__ import annotations

from repro.core.partition import PartitionScheme
from repro.profiling.modelconfig import ModelProfile
from repro.schedules.base import (
    Schedule,
    ScheduleShape,
    check_micro_batches,
    full_units,
)
from repro.schedules.one_f_one_b import _StageCosts


def build_gpipe(
    profile: ModelProfile,
    partition: PartitionScheme,
    num_micro_batches: int,
    *,
    name: str = "gpipe",
) -> Schedule:
    """The deferred GPipe schedule, shape key ``("gpipe", depth, m)``."""
    m = check_micro_batches(num_micro_batches)
    costs = [_StageCosts(profile, stage) for stage in partition.stages]
    static = [c.params * profile.train.bytes_per_param_state for c in costs]
    shape = ScheduleShape(
        ("gpipe", partition.num_stages, m), [[c] for c in costs],
        profile.boundary_bytes,
    )
    return Schedule.deferred(name, shape, static)


def gpipe(sink, depth: int, m: int) -> None:
    """Drive ``sink`` through the GPipe order: every forward, then every
    backward in reverse micro-batch order, all communication buffered."""
    units = full_units(m)
    for x in range(depth):
        sink.device(x)
        up = x > 0
        down = x < depth - 1
        for u in units:
            mb = u[0]
            if up:
                sink.eager(x - 1, False, f"act:{mb}:{x - 1}>{x}", u)
            sink.compute("F", 0, u, "warmup")
            if down:
                sink.eager(x + 1, True, f"act:{mb}:{x}>{x + 1}", u)
        for u in reversed(units):
            mb = u[0]
            if down:
                sink.eager(x + 1, False, f"grad:{mb}:{x + 1}>{x}", u)
            sink.compute("B", 0, u, "cooldown")
            if up:
                sink.eager(x - 1, True, f"grad:{mb}:{x}>{x - 1}", u)
