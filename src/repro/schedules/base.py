"""Schedule intermediate representation executed by the DES.

A :class:`Schedule` is one ordered program per device.  Programs contain:

* :class:`ComputeOp` — a forward/backward pass of one *unit* (a micro-batch
  or a sliced half) with a concrete duration and memory behaviour;
* :class:`CommOp` — a point-to-point exchange with one peer device.  With
  ``rendezvous=True`` (NCCL synchronous p2p) both sides must reach their
  matching op before the transfer starts — this is what makes the Slicer's
  warmup blockage observable.  With ``rendezvous=False`` the sender deposits
  the payload eagerly and only the receiver waits (buffered isend
  semantics, used by the interleaved and GPipe schedules).

Matching rule: a ``CommOp`` on device A matches the first unmatched
``CommOp`` on peer B whose transfer tag set is identical.  Builders must
emit mirror-image ops; the engine verifies the invariant and raises on
deadlock instead of hanging.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: A schedule unit: (micro_batch, half) where half is -1 (whole), 0 or 1.
Unit = Tuple[int, int]


def check_micro_batches(num_micro_batches: object) -> int:
    """``num_micro_batches`` as a positive int, or a ``ValueError``.

    Builders key their shape on the count, so a float that compares equal
    to an int (``4.0``) or a ``bool`` must not pass for one.
    """
    if isinstance(num_micro_batches, bool) or not isinstance(
        num_micro_batches, Integral
    ):
        raise ValueError(
            f"num_micro_batches must be an integer, got {num_micro_batches!r}"
        )
    if num_micro_batches <= 0:
        raise ValueError(
            f"num_micro_batches must be at least 1, got {num_micro_batches}"
        )
    return int(num_micro_batches)


def _check_placement(programs: List[List[object]]) -> None:
    for dev, program in enumerate(programs):
        for op in program:
            if isinstance(op, CommOp) and op.device != dev:
                raise ValueError(
                    f"CommOp for device {op.device} placed on device {dev}"
                )


def full_units(num_micro_batches: int) -> List[Unit]:
    """The trivial unit sequence: every micro-batch whole."""
    if num_micro_batches <= 0:
        raise ValueError("need at least one micro-batch")
    return [(mb, -1) for mb in range(num_micro_batches)]


def unit_fraction(unit: Unit) -> float:
    """Fraction of a full micro-batch this unit carries."""
    return 1.0 if unit[1] == -1 else 0.5


def unit_label(unit: Unit) -> str:
    mb, half = unit
    return f"{mb}" if half == -1 else f"{mb}{'ab'[half]}"


@dataclass(frozen=True)
class ComputeOp:
    """One forward or backward pass executed on a device."""

    kind: str                 # "F" or "B"
    unit: Unit
    duration: float
    #: bytes allocated when the op starts and held until released by a
    #: later op (activation stash for "F"; zero for "B").
    alloc_bytes: float = 0.0
    #: bytes released when the op ends (the stash freed by a "B").
    free_bytes: float = 0.0
    #: transient bytes live only while the op runs.
    workspace_bytes: float = 0.0
    #: warmup / steady / cooldown — drives the startup-overhead metric.
    phase: str = "steady"
    #: which model chunk the op belongs to (interleaved schedules).
    chunk: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("F", "B"):
            raise ValueError(f"compute kind must be F or B, got {self.kind!r}")
        if self.duration < 0:
            raise ValueError("negative duration")

    def label(self) -> str:
        return f"{self.kind}({unit_label(self.unit)})"


@dataclass(frozen=True)
class Transfer:
    """One directed payload inside a CommOp."""

    tag: str
    src: int
    dst: int
    bytes: float

    def __post_init__(self) -> None:
        if self.bytes < 0:
            raise ValueError("negative transfer size")
        if self.src == self.dst:
            raise ValueError("transfer to self")


@dataclass(frozen=True)
class CommOp:
    """A (possibly bidirectional) exchange with a single peer device."""

    device: int
    peer: int
    transfers: Tuple[Transfer, ...]
    rendezvous: bool = True

    def __post_init__(self) -> None:
        if not self.transfers:
            raise ValueError("CommOp needs at least one transfer")
        for t in self.transfers:
            if {t.src, t.dst} != {self.device, self.peer}:
                raise ValueError(
                    f"transfer {t.tag} endpoints {t.src}->{t.dst} do not "
                    f"match op pair ({self.device}, {self.peer})"
                )

    @property
    def tag_set(self) -> frozenset:
        return frozenset(t.tag for t in self.transfers)

    def sends(self) -> List[Transfer]:
        return [t for t in self.transfers if t.src == self.device]

    def receives(self) -> List[Transfer]:
        return [t for t in self.transfers if t.dst == self.device]

    def label(self) -> str:
        parts = [
            ("→" if t.src == self.device else "←") + t.tag for t in self.transfers
        ]
        return "comm[" + ",".join(parts) + "]"


class ScheduleShape:
    """What a deferred schedule's ops are a pure function of.

    ``key`` names the op structure — family, depth, micro-batch count,
    unit sequence or chunk count — so two schedules with equal keys have
    the same op sequences, labels, phases and communication matching.
    Its first element picks the family's order
    (:data:`repro.schedules.ORDERS`), which takes the rest and returns
    the key's :class:`OpTable`.  The
    per-query costs are just ``stage_costs`` (per device, per model
    chunk, the builder's ``_StageCosts``: full/half F/B durations, stash
    and workspace bytes) and ``boundary_bytes`` (a transfer carries all
    of them, or half for a half unit).
    """

    __slots__ = ("key", "stage_costs", "boundary_bytes")

    def __init__(
        self,
        key: Tuple,
        stage_costs: Sequence[Sequence[object]],
        boundary_bytes: float,
    ) -> None:
        self.key = key
        self.stage_costs = stage_costs
        self.boundary_bytes = boundary_bytes


#: op-table kind codes (column ``kind``): a forward or backward pass, a
#: fused rendezvous exchange, a buffered send and a buffered receive.
OP_F, OP_B, OP_EXCHANGE, OP_SEND, OP_RECV = range(5)

#: pass phases by code (column ``phase``).
PHASES = ("warmup", "steady", "cooldown")


class OpTable:
    """A schedule's per-device programs as parallel op columns.

    Each family's order (:data:`repro.schedules.ORDERS`) is one function
    that builds this table with numpy index arithmetic.  There is one row
    per op, device-major and in program order; every column is an
    ``intp`` array:

    * ``dev``: the device running the op;
    * ``kind``: ``OP_F``/``OP_B``, ``OP_EXCHANGE`` (one fused rendezvous
      with ``peer``, at most one payload each way), or ``OP_SEND``/
      ``OP_RECV`` (one buffered payload to or from ``peer``);
    * ``chunk``, ``unit``, ``phase``: a pass's model chunk, index into
      ``units`` and index into :data:`PHASES`;
    * ``peer``: a communication op's peer device;
    * ``send``, ``recv``: the message a communication op sends and
      receives, ``-1`` for none.

    A message id names one payload: ``(grad * len(units) + unit) *
    num_stages + src``, an activation (``grad`` 0) from (virtual) stage
    ``src`` to ``src + 1`` or a gradient from ``src`` to ``src - 1``.
    :meth:`tag` spells it as the transfer tag, and its unit says whether
    the payload is half a micro-batch.
    """

    __slots__ = (
        "num_devices", "units", "num_stages", "tag_prefix",
        "dev", "kind", "chunk", "unit", "phase", "peer", "send", "recv",
    )

    def __init__(
        self,
        num_devices: int,
        units: Sequence[Unit],
        num_stages: int,
        columns: Sequence[np.ndarray],
        tag_prefix: str = "",
    ) -> None:
        self.num_devices = num_devices
        self.units = tuple(units)
        self.num_stages = num_stages
        self.tag_prefix = tag_prefix
        (
            self.dev, self.kind, self.chunk, self.unit, self.phase,
            self.peer, self.send, self.recv,
        ) = columns

    def payload_unit(self, msg):
        """The unit index a message carries."""
        return msg // self.num_stages % len(self.units)

    def tag(self, msg: int) -> str:
        """The transfer tag of message ``msg``, e.g. ``act:0a:1>2``."""
        rest, src = divmod(msg, self.num_stages)
        grad, unit = divmod(rest, len(self.units))
        p = self.tag_prefix
        return (
            f"{'grad' if grad else 'act'}:{unit_label(self.units[unit])}:"
            f"{p}{src}>{p}{src - 1 if grad else src + 1}"
        )

    @classmethod
    def from_sections(
        cls,
        num_devices: int,
        units: Sequence[Unit],
        num_stages: int,
        sections: Sequence[Tuple[int, Sequence[tuple]]],
        tag_prefix: str = "",
    ) -> "OpTable":
        """Assemble a table from per-device op grids.

        Each section ``(length, slots)`` is ``length`` iterations of the
        ops ``slots`` lists, on every device.  A slot is :func:`op_slot`'s
        tuple of a mask and the column values, each broadcastable to
        ``(num_devices, length)``.  A device's program is its sections in
        order, iterations in order, and each iteration's slots in order,
        keeping the ops whose mask is set.
        """
        width = sum(length * len(slots) for length, slots in sections)
        grid = np.empty((8, num_devices, width), dtype=np.intp)
        grid[2:] = _DEFAULTS
        start = 0
        for length, slots in sections:
            stop = start + length * len(slots)
            block = grid[:, :, start:stop].reshape(
                8, num_devices, length, len(slots)
            )
            for j, slot in enumerate(slots):
                for c, value in enumerate(slot):
                    if value is not None:
                        block[c, :, :, j] = value
            start = stop
        mask = grid[0] != 0
        columns = [mask.nonzero()[0], *grid[1:, mask]]
        return cls(num_devices, units, num_stages, columns, tag_prefix)


def message_id(grad, unit, src, num_units: int, num_stages: int):
    """The :class:`OpTable` id of unit ``unit``'s activation (``grad`` 0)
    or gradient (``grad`` 1) leaving stage ``src``."""
    return (grad * num_units + unit) * num_stages + src


#: the values of the columns after ``kind`` an :func:`op_slot` leaves out.
_DEFAULTS = np.array([0, -1, -1, -1, -1, -1])[:, None, None]


def op_slot(mask, kind, *, chunk=None, unit=None, phase=None, peer=None,
            send=None, recv=None) -> tuple:
    """One op position of an :meth:`OpTable.from_sections` iteration;
    a column left out is ``chunk`` 0, or -1 for the others."""
    return (mask, kind, chunk, unit, phase, peer, send, recv)


def _op_programs(shape: ScheduleShape) -> List[List[object]]:
    """The Op programs of a shape: one op per row of its family's table,
    costed from the shape's per-stage costs and boundary bytes."""
    # The package's registry imports the family modules, which import
    # this one.
    from repro.schedules import ORDERS

    key = shape.key
    table = ORDERS[key[0]](*key[1:])
    costs = shape.stage_costs
    units = table.units
    #: (tag, bytes) of each message.
    payloads: Dict[int, Tuple[str, float]] = {}

    def transfer(msg: int, src: int, dst: int) -> Transfer:
        payload = payloads.get(msg)
        if payload is None:
            unit = units[table.payload_unit(msg)]
            payload = payloads[msg] = (
                table.tag(msg), shape.boundary_bytes * unit_fraction(unit)
            )
        return Transfer(payload[0], src, dst, payload[1])

    programs: List[List[object]] = [[] for _ in range(table.num_devices)]
    rows = zip(*(
        column.tolist() for column in (
            table.dev, table.kind, table.chunk, table.unit, table.phase,
            table.peer, table.send, table.recv,
        )
    ))
    for x, kind, chunk, u, phase, peer, send, recv in rows:
        if kind == OP_F or kind == OP_B:
            cost = costs[x][chunk]
            unit = units[u]
            if kind == OP_F:
                op = ComputeOp(
                    "F", unit, cost.fwd(unit), alloc_bytes=cost.stash(unit),
                    workspace_bytes=cost.workspace(unit),
                    phase=PHASES[phase], chunk=chunk,
                )
            else:
                op = ComputeOp(
                    "B", unit, cost.bwd(unit), free_bytes=cost.stash(unit),
                    workspace_bytes=cost.workspace(unit),
                    phase=PHASES[phase], chunk=chunk,
                )
        else:
            transfers = []
            if send >= 0:
                transfers.append(transfer(send, x, peer))
            if recv >= 0:
                transfers.append(transfer(recv, peer, x))
            op = CommOp(
                x, peer, tuple(transfers), rendezvous=kind == OP_EXCHANGE
            )
        programs[x].append(op)
    return programs


class Schedule:
    """Per-device programs plus bookkeeping for metrics.

    A schedule is built from explicit ``programs``, or *deferred* by one
    of this package's builders (:meth:`deferred`): it then carries a
    :class:`ScheduleShape` and emits its Op programs the first time
    ``programs`` is read — by the event engine, a timeline export or a
    test.  The compiled-graph executor reads only the shape, so a
    schedule whose shape template is cached never builds an Op.
    """

    def __init__(
        self,
        name: str,
        programs: List[List[object]],
        static_bytes: Optional[List[float]] = None,
    ) -> None:
        if not programs:
            raise ValueError("a schedule needs at least one device program")
        self.name = name
        self.shape: Optional[ScheduleShape] = None
        self._emitted_ids: Optional[Tuple] = None
        self._programs = programs
        self.static_bytes = static_bytes if static_bytes else (
            [0.0] * len(programs)
        )
        if len(self.static_bytes) != len(programs):
            raise ValueError("static_bytes length mismatch")
        self._num_devices = len(programs)
        _check_placement(programs)

    @classmethod
    def deferred(
        cls, name: str, shape: ScheduleShape, static_bytes: List[float]
    ) -> "Schedule":
        """A schedule whose programs its family's op table emits on
        first read."""
        self = cls.__new__(cls)
        self.name = name
        self.shape = shape
        self._emitted_ids = None
        self._programs = None
        self.static_bytes = static_bytes
        self._num_devices = len(static_bytes)
        return self

    @property
    def programs(self) -> List[List[object]]:
        """ComputeOp | CommOp per device, emitted on first read if deferred."""
        programs = self._programs
        if programs is None:
            programs = self._programs = _op_programs(self.shape)
            self._emitted_ids = self._op_ids()
        return programs

    @property
    def num_devices(self) -> int:
        return self._num_devices

    def _op_ids(self) -> Tuple:
        return tuple(tuple(map(id, program)) for program in self._programs)

    def identity_signature(self) -> Tuple:
        """A cheap fingerprint of the exact op objects in every program.

        Ops are frozen dataclasses, so a schedule can only change through
        its ``programs`` lists (append/remove/replace) or ``static_bytes``
        — both visible as a change of this signature.
        :meth:`template_shape` uses it to keep an edited deferred schedule
        off its template.  A deferred schedule whose programs are unread,
        or still exactly as emitted, signs as ``(None, static)``, so
        reading ``programs`` is not an edit.
        (Best-effort: a replacement op that reuses the freed op's memory
        address is indistinguishable.)
        """
        static = tuple(self.static_bytes)
        if self._programs is None:
            return (None, static)
        ids = self._op_ids()
        if ids == self._emitted_ids:
            return (None, static)
        return (ids, static)

    def template_shape(self) -> Optional[ScheduleShape]:
        """The keyed shape, while the programs are still the emitted ones."""
        shape = self.shape
        if shape is None:
            return None
        if self._programs is None:
            return shape
        return shape if self.identity_signature()[0] is None else None

    def compute_ops(self, device: int) -> List[ComputeOp]:
        return [op for op in self.programs[device] if isinstance(op, ComputeOp)]

    def validate_comm_symmetry(self) -> None:
        """Every CommOp must have exactly one mirror op on its peer."""
        counts: Dict[Tuple[int, int, frozenset], int] = {}
        for dev, program in enumerate(self.programs):
            for op in program:
                if isinstance(op, CommOp):
                    key = (dev, op.peer, op.tag_set)
                    counts[key] = counts.get(key, 0) + 1
        for (dev, peer, tags), count in counts.items():
            mirror = counts.get((peer, dev, tags), 0)
            if mirror != count:
                raise ValueError(
                    f"unmatched comm between {min(dev, peer)} and "
                    f"{max(dev, peer)}: tags {sorted(tags)} appear {count}x "
                    f"on {dev} but {mirror}x on {peer}"
                )
