"""Each schedule family's op order, pinned literally.

The Op programs and the compiled executor's template walk both follow
one order function per family, so comparing the two routes cannot catch
a mistake in that order.  These listings can: for one small shape per
family they spell out every device's program, op by op, as the op label
followed by the phase of a compute op, or by ``rdv`` (rendezvous) or
``eager`` (buffered) and the peer device of a communication op.
"""

import pytest

from repro.baselines.megatron import uniform_partition
from repro.core.slicer import SlicePlan
from repro.schedules import (
    build_1f1b,
    build_gpipe,
    build_interleaved,
    build_sliced,
)
from repro.schedules.base import ComputeOp

ORDERS = {
    '1f1b': [
        [
            'F(0) warmup',
            'comm[→act:0:0>1] rdv 1',
            'F(1) warmup',
            'comm[→act:1:0>1] rdv 1',
            'F(2) steady',
            'comm[→act:2:0>1,←grad:0:1>0] rdv 1',
            'B(0) steady',
            'F(3) steady',
            'comm[→act:3:0>1,←grad:1:1>0] rdv 1',
            'B(1) steady',
            'comm[←grad:2:1>0] rdv 1',
            'B(2) cooldown',
            'comm[←grad:3:1>0] rdv 1',
            'B(3) cooldown',
        ],
        [
            'comm[←act:0:0>1] rdv 0',
            'F(0) warmup',
            'comm[→act:0:1>2] rdv 2',
            'comm[←act:1:0>1] rdv 0',
            'F(1) steady',
            'comm[→act:1:1>2,←grad:0:2>1] rdv 2',
            'B(0) steady',
            'comm[→grad:0:1>0,←act:2:0>1] rdv 0',
            'F(2) steady',
            'comm[→act:2:1>2,←grad:1:2>1] rdv 2',
            'B(1) steady',
            'comm[→grad:1:1>0,←act:3:0>1] rdv 0',
            'F(3) steady',
            'comm[→act:3:1>2,←grad:2:2>1] rdv 2',
            'B(2) steady',
            'comm[→grad:2:1>0] rdv 0',
            'comm[←grad:3:2>1] rdv 2',
            'B(3) cooldown',
            'comm[→grad:3:1>0] rdv 0',
        ],
        [
            'comm[←act:0:1>2] rdv 1',
            'F(0) steady',
            'B(0) steady',
            'comm[→grad:0:2>1,←act:1:1>2] rdv 1',
            'F(1) steady',
            'B(1) steady',
            'comm[→grad:1:2>1,←act:2:1>2] rdv 1',
            'F(2) steady',
            'B(2) steady',
            'comm[→grad:2:2>1,←act:3:1>2] rdv 1',
            'F(3) steady',
            'B(3) steady',
            'comm[→grad:3:2>1] rdv 1',
        ],
    ],
    'sliced': [
        [
            'F(0a) warmup',
            'comm[→act:0a:0>1] eager 1',
            'F(0b) warmup',
            'comm[→act:0b:0>1] eager 1',
            'F(1a) steady',
            'comm[→act:1a:0>1] eager 1',
            'comm[←grad:0a:1>0] rdv 1',
            'B(0a) steady',
            'F(1b) steady',
            'comm[→act:1b:0>1] eager 1',
            'comm[←grad:0b:1>0] rdv 1',
            'B(0b) steady',
            'F(2) steady',
            'comm[→act:2:0>1,←grad:1a:1>0] rdv 1',
            'B(1a) steady',
            'F(3) steady',
            'comm[→act:3:0>1,←grad:1b:1>0] rdv 1',
            'B(1b) steady',
            'comm[←grad:2:1>0] rdv 1',
            'B(2) cooldown',
            'comm[←grad:3:1>0] rdv 1',
            'B(3) cooldown',
        ],
        [
            'comm[←act:0a:0>1] eager 0',
            'F(0a) warmup',
            'comm[→act:0a:1>2] eager 2',
            'comm[←act:0b:0>1] eager 0',
            'F(0b) steady',
            'comm[→act:0b:1>2] eager 2',
            'comm[←grad:0a:2>1] rdv 2',
            'B(0a) steady',
            'comm[→grad:0a:1>0] rdv 0',
            'comm[←act:1a:0>1] eager 0',
            'F(1a) steady',
            'comm[→act:1a:1>2] eager 2',
            'comm[←grad:0b:2>1] rdv 2',
            'B(0b) steady',
            'comm[→grad:0b:1>0] rdv 0',
            'comm[←act:1b:0>1] eager 0',
            'F(1b) steady',
            'comm[→act:1b:1>2] eager 2',
            'comm[←grad:1a:2>1] rdv 2',
            'B(1a) steady',
            'comm[→grad:1a:1>0,←act:2:0>1] rdv 0',
            'F(2) steady',
            'comm[→act:2:1>2,←grad:1b:2>1] rdv 2',
            'B(1b) steady',
            'comm[→grad:1b:1>0,←act:3:0>1] rdv 0',
            'F(3) steady',
            'comm[→act:3:1>2,←grad:2:2>1] rdv 2',
            'B(2) steady',
            'comm[→grad:2:1>0] rdv 0',
            'comm[←grad:3:2>1] rdv 2',
            'B(3) cooldown',
            'comm[→grad:3:1>0] rdv 0',
        ],
        [
            'comm[←act:0a:1>2] eager 1',
            'F(0a) steady',
            'B(0a) steady',
            'comm[→grad:0a:2>1] rdv 1',
            'comm[←act:0b:1>2] eager 1',
            'F(0b) steady',
            'B(0b) steady',
            'comm[→grad:0b:2>1] rdv 1',
            'comm[←act:1a:1>2] eager 1',
            'F(1a) steady',
            'B(1a) steady',
            'comm[→grad:1a:2>1] rdv 1',
            'comm[←act:1b:1>2] eager 1',
            'F(1b) steady',
            'B(1b) steady',
            'comm[→grad:1b:2>1,←act:2:1>2] rdv 1',
            'F(2) steady',
            'B(2) steady',
            'comm[→grad:2:2>1,←act:3:1>2] rdv 1',
            'F(3) steady',
            'B(3) steady',
            'comm[→grad:3:2>1] rdv 1',
        ],
    ],
    'gpipe': [
        [
            'F(0) warmup',
            'comm[→act:0:0>1] eager 1',
            'F(1) warmup',
            'comm[→act:1:0>1] eager 1',
            'F(2) warmup',
            'comm[→act:2:0>1] eager 1',
            'comm[←grad:2:1>0] eager 1',
            'B(2) cooldown',
            'comm[←grad:1:1>0] eager 1',
            'B(1) cooldown',
            'comm[←grad:0:1>0] eager 1',
            'B(0) cooldown',
        ],
        [
            'comm[←act:0:0>1] eager 0',
            'F(0) warmup',
            'comm[←act:1:0>1] eager 0',
            'F(1) warmup',
            'comm[←act:2:0>1] eager 0',
            'F(2) warmup',
            'B(2) cooldown',
            'comm[→grad:2:1>0] eager 0',
            'B(1) cooldown',
            'comm[→grad:1:1>0] eager 0',
            'B(0) cooldown',
            'comm[→grad:0:1>0] eager 0',
        ],
    ],
    'interleaved': [
        [
            'F(0) warmup',
            'comm[→act:0:vs0>vs1] eager 1',
            'F(1) warmup',
            'comm[→act:1:vs0>vs1] eager 1',
            'comm[←act:0:vs1>vs2] eager 1',
            'F(0) warmup',
            'comm[→act:0:vs2>vs3] eager 1',
            'comm[←act:1:vs1>vs2] eager 1',
            'F(1) warmup',
            'comm[→act:1:vs2>vs3] eager 1',
            'F(2) steady',
            'comm[→act:2:vs0>vs1] eager 1',
            'comm[←grad:0:vs3>vs2] eager 1',
            'B(0) steady',
            'comm[→grad:0:vs2>vs1] eager 1',
            'F(3) steady',
            'comm[→act:3:vs0>vs1] eager 1',
            'comm[←grad:1:vs3>vs2] eager 1',
            'B(1) steady',
            'comm[→grad:1:vs2>vs1] eager 1',
            'comm[←act:2:vs1>vs2] eager 1',
            'F(2) steady',
            'comm[→act:2:vs2>vs3] eager 1',
            'comm[←grad:0:vs1>vs0] eager 1',
            'B(0) steady',
            'comm[←act:3:vs1>vs2] eager 1',
            'F(3) steady',
            'comm[→act:3:vs2>vs3] eager 1',
            'comm[←grad:1:vs1>vs0] eager 1',
            'B(1) steady',
            'comm[←grad:2:vs3>vs2] eager 1',
            'B(2) cooldown',
            'comm[→grad:2:vs2>vs1] eager 1',
            'comm[←grad:3:vs3>vs2] eager 1',
            'B(3) cooldown',
            'comm[→grad:3:vs2>vs1] eager 1',
            'comm[←grad:2:vs1>vs0] eager 1',
            'B(2) cooldown',
            'comm[←grad:3:vs1>vs0] eager 1',
            'B(3) cooldown',
        ],
        [
            'comm[←act:0:vs0>vs1] eager 0',
            'F(0) warmup',
            'comm[→act:0:vs1>vs2] eager 0',
            'comm[←act:1:vs0>vs1] eager 0',
            'F(1) warmup',
            'comm[→act:1:vs1>vs2] eager 0',
            'comm[←act:0:vs2>vs3] eager 0',
            'F(0) steady',
            'B(0) steady',
            'comm[→grad:0:vs3>vs2] eager 0',
            'comm[←act:1:vs2>vs3] eager 0',
            'F(1) steady',
            'B(1) steady',
            'comm[→grad:1:vs3>vs2] eager 0',
            'comm[←act:2:vs0>vs1] eager 0',
            'F(2) steady',
            'comm[→act:2:vs1>vs2] eager 0',
            'comm[←grad:0:vs2>vs1] eager 0',
            'B(0) steady',
            'comm[→grad:0:vs1>vs0] eager 0',
            'comm[←act:3:vs0>vs1] eager 0',
            'F(3) steady',
            'comm[→act:3:vs1>vs2] eager 0',
            'comm[←grad:1:vs2>vs1] eager 0',
            'B(1) steady',
            'comm[→grad:1:vs1>vs0] eager 0',
            'comm[←act:2:vs2>vs3] eager 0',
            'F(2) steady',
            'B(2) steady',
            'comm[→grad:2:vs3>vs2] eager 0',
            'comm[←act:3:vs2>vs3] eager 0',
            'F(3) steady',
            'B(3) steady',
            'comm[→grad:3:vs3>vs2] eager 0',
            'comm[←grad:2:vs2>vs1] eager 0',
            'B(2) cooldown',
            'comm[→grad:2:vs1>vs0] eager 0',
            'comm[←grad:3:vs2>vs1] eager 0',
            'B(3) cooldown',
            'comm[→grad:3:vs1>vs0] eager 0',
        ],
    ],
}


def _describe(op):
    if isinstance(op, ComputeOp):
        return f"{op.label()} {op.phase}"
    return f"{op.label()} {'rdv' if op.rendezvous else 'eager'} {op.peer}"


def _build(family, profile):
    """1F1B d3/m4, sliced d3/m4 (2 sliced, aggregated), GPipe d2/m3 and
    interleaved d2/m4 with 2 chunks."""
    if family == "1f1b":
        return build_1f1b(profile, uniform_partition(profile, 3), 4)
    if family == "sliced":
        plan = SlicePlan(2, 4, aggregate_last_warmup_comm=True)
        return build_sliced(profile, uniform_partition(profile, 3), plan)
    if family == "gpipe":
        return build_gpipe(profile, uniform_partition(profile, 2), 3)
    return build_interleaved(profile, 2, 4, num_chunks=2)


@pytest.mark.parametrize("family", sorted(ORDERS))
def test_family_order_is_pinned(gpt2_profile, family):
    schedule = _build(family, gpt2_profile)
    got = [[_describe(op) for op in program] for program in schedule.programs]
    assert got == ORDERS[family]
