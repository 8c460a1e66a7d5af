"""Pipeline schedule IR and builders (Megatron 1F1B, interleaved, GPipe, sliced)."""

from repro.schedules.base import (
    ComputeOp,
    CommOp,
    Schedule,
    Transfer,
    Unit,
    full_units,
)
from repro.schedules.gpipe import build_gpipe, gpipe
from repro.schedules.interleaved import (
    InterleavedInfeasible,
    build_interleaved,
    interleaved,
    interleaved_chunks,
)
from repro.schedules.one_f_one_b import build_1f1b, one_f_one_b
from repro.schedules.sliced import build_sliced

#: the order of each shape-key family (element 0 of the key): a function
#: called as ``ORDERS[key[0]](*key[1:])`` that returns the key's
#: :class:`~repro.schedules.base.OpTable`.  Deferred schedules build
#: their Op programs from the table and compiled-graph template misses
#: their walks (:func:`repro.sim.walks.shape_walk`).
ORDERS = {"1f1b": one_f_one_b, "gpipe": gpipe, "interleaved": interleaved}

__all__ = [
    "ComputeOp",
    "CommOp",
    "Schedule",
    "Transfer",
    "Unit",
    "full_units",
    "build_gpipe",
    "build_1f1b",
    "build_sliced",
    "build_interleaved",
    "interleaved_chunks",
    "InterleavedInfeasible",
    "ORDERS",
]
