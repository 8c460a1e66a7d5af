"""GPipe schedule: all forwards, then all backwards.

Included as a secondary baseline/teaching schedule: it maximises bubble
time at small micro-batch counts and stashes *every* micro-batch (memory
grows with ``m``), which is why 1F1B replaced it.  Communication is
buffered (GPipe's fill-drain pattern has no bidirectional pairing).
"""

from __future__ import annotations

import numpy as np

from repro.core.partition import PartitionScheme
from repro.profiling.modelconfig import ModelProfile
from repro.schedules.base import (
    OP_B,
    OP_F,
    OP_RECV,
    OP_SEND,
    OpTable,
    Schedule,
    ScheduleShape,
    check_micro_batches,
    full_units,
    message_id,
    op_slot,
)
from repro.schedules.one_f_one_b import stage_costs


def build_gpipe(
    profile: ModelProfile,
    partition: PartitionScheme,
    num_micro_batches: int,
    *,
    name: str = "gpipe",
) -> Schedule:
    """The deferred GPipe schedule, shape key ``("gpipe", depth, m)``."""
    m = check_micro_batches(num_micro_batches)
    costs, static = stage_costs(profile, partition)
    shape = ScheduleShape(
        ("gpipe", partition.num_stages, m), [[c] for c in costs],
        profile.boundary_bytes,
    )
    return Schedule.deferred(name, shape, static)


def gpipe(depth: int, m: int) -> OpTable:
    """The GPipe order as an op table: every forward, then every backward
    in reverse micro-batch order, all communication buffered."""
    x = np.arange(depth)[:, None]
    mb = np.arange(m)[None, :]
    rev = m - 1 - mb
    up, down = x > 0, x < depth - 1

    def msg(grad, unit, src):
        return message_id(grad, unit, src, m, depth)

    forwards = [
        op_slot(up, OP_RECV, peer=x - 1, recv=msg(0, mb, x - 1)),
        op_slot(True, OP_F, unit=mb, phase=0),
        op_slot(down, OP_SEND, peer=x + 1, send=msg(0, mb, x)),
    ]
    backwards = [
        op_slot(down, OP_RECV, peer=x + 1, recv=msg(1, rev, x + 1)),
        op_slot(True, OP_B, unit=rev, phase=2),
        op_slot(up, OP_SEND, peer=x - 1, send=msg(1, rev, x)),
    ]
    return OpTable.from_sections(
        depth, full_units(m), depth, [(m, forwards), (m, backwards)]
    )
