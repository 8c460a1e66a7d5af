"""GPipe schedule: all forwards, then all backwards.

Included as a secondary baseline/teaching schedule: it maximises bubble
time at small micro-batch counts and stashes *every* micro-batch (memory
grows with ``m``), which is why 1F1B replaced it.  Communication is
buffered (GPipe's fill-drain pattern has no bidirectional pairing).

Maintenance note: ``repro.sim.walks.gpipe_walk`` emits the compiled
graph of this schedule straight from its shape key on a template miss,
following ``_emit_gpipe`` op for op; ``tests/sim/test_direct_walks.py``
holds the two to the same walk.
"""

from __future__ import annotations

from typing import List

from repro.core.partition import PartitionScheme
from repro.profiling.modelconfig import ModelProfile
from repro.schedules.base import (
    CommOp,
    ComputeOp,
    Schedule,
    ScheduleShape,
    Transfer,
    Unit,
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
    n = partition.num_stages
    m = check_micro_batches(num_micro_batches)
    costs = [_StageCosts(profile, stage) for stage in partition.stages]
    bbytes = profile.boundary_bytes
    static = [c.params * profile.train.bytes_per_param_state for c in costs]

    def emit() -> List[List[object]]:
        return _emit_gpipe(costs, bbytes, full_units(m))

    shape = ScheduleShape(("gpipe", n, m), [[c] for c in costs], bbytes, emit)
    return Schedule.deferred(name, shape, static)


def _emit_gpipe(
    costs: List[_StageCosts], bbytes: float, units: List[Unit]
) -> List[List[object]]:
    n = len(costs)
    programs: List[List[object]] = []
    for x in range(n):
        program: List[object] = []
        for u in units:
            mb = u[0]
            if x > 0:
                tag = f"act:{mb}:{x - 1}>{x}"
                program.append(CommOp(
                    x, x - 1, (Transfer(tag, x - 1, x, bbytes),), rendezvous=False
                ))
            program.append(ComputeOp(
                "F", u, costs[x].fwd(u),
                alloc_bytes=costs[x].stash(u),
                workspace_bytes=costs[x].workspace(u),
                phase="warmup",
            ))
            if x < n - 1:
                tag = f"act:{mb}:{x}>{x + 1}"
                program.append(CommOp(
                    x, x + 1, (Transfer(tag, x, x + 1, bbytes),), rendezvous=False
                ))
        # Backward drain, reverse micro-batch order (GPipe convention).
        for u in reversed(units):
            mb = u[0]
            if x < n - 1:
                tag = f"grad:{mb}:{x + 1}>{x}"
                program.append(CommOp(
                    x, x + 1, (Transfer(tag, x + 1, x, bbytes),), rendezvous=False
                ))
            program.append(ComputeOp(
                "B", u, costs[x].bwd(u),
                free_bytes=costs[x].stash(u),
                workspace_bytes=costs[x].workspace(u),
                phase="cooldown",
            ))
            if x > 0:
                tag = f"grad:{mb}:{x}>{x - 1}"
                program.append(CommOp(
                    x, x - 1, (Transfer(tag, x, x - 1, bbytes),), rendezvous=False
                ))
        programs.append(program)
    return programs
