"""The discrete-event execution engine.

Executes a :class:`repro.schedules.base.Schedule` over a
:class:`repro.hardware.cluster.Cluster`, honouring:

* **in-order device programs** — a device runs its ops strictly in schedule
  order (this is what turns an unbalanced partition into observable
  bubbles);
* **rendezvous communication** — a synchronous CommOp starts only once
  *both* endpoints reach their matching op (NCCL p2p), which reproduces the
  Slicer's warmup blockage; eager CommOps instead deposit payloads so only
  the receiver waits;
* **full-duplex links** — the two directions of one exchange overlap, so a
  bidirectional exchange costs the same as the slower direction (the
  paper's observation that bidirectional == unidirectional);
* **memory accounting** — activation stashes are allocated at FP start and
  released at BP end; the per-device peak is checked against GPU capacity.

The engine is **event-driven**: a ready queue holds the devices that may
make progress, and a popped device runs its program until it parks on an
explicit wait condition — an unmatched rendezvous key or a missing eager
deposit tag.  A parked device is re-enqueued only when the matching
post/deposit lands, so one run costs ``O(total ops)`` work instead of the
quadratic all-device sweep a polling loop would pay.  An empty queue with
unfinished programs is a deadlock and raises :class:`DeadlockError` with a
per-device diagnosis.

Two further optimisations keep the per-op constant small without changing
any observable result:

* **program compilation** — at construction the engine lowers each op into
  a flat instruction tuple with the label string, rendezvous key and link
  times precomputed (the comm symmetry validation runs once per
  schedule);
* **lazy timeline materialisation** — the hot loop appends plain tuples and
  :class:`ExecutionResult` only builds :class:`TimelineEvent` objects the
  first time ``.events`` is read, so callers that consume only
  ``iteration_time``/``peak_memory`` (the planner's inner loop) never pay
  for event construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.hardware.cluster import Cluster
from repro.hardware.comm import CommModel
from repro.schedules.base import CommOp, ComputeOp, Schedule
from repro.sim.timeline import TimelineEvent

#: compiled instruction opcodes (element 0 of every instruction tuple;
#: element 1 is always the display label).
_COMPUTE = 0
_RENDEZVOUS = 1
_EAGER = 2


class DeadlockError(RuntimeError):
    """Raised when no device can advance but programs are unfinished."""


class ExecutionResult:
    """Everything measured from one executed schedule.

    Metrics (``busy_time``, ``bubble_fraction``, ``first_forward_start``)
    read the raw event tuples ``(device, category, label, start, end,
    phase)`` directly, so consuming them never forces
    :class:`TimelineEvent` materialisation; ``.events`` still builds the
    object view on first access for exporters and tests that want it.
    The raw events themselves may be produced lazily (the static-graph
    executor only walks its node arrays into tuples when asked).
    """

    __slots__ = (
        "schedule_name", "iteration_time", "peak_memory", "oom_devices",
        "num_devices", "_raw", "_raw_factory", "_materialized",
        "_first_forward",
    )

    def __init__(
        self,
        schedule_name: str,
        iteration_time: float,
        peak_memory: List[float],
        oom_devices: List[int],
        num_devices: int,
        raw_events: Optional[List[tuple]] = None,
        *,
        raw_events_factory: Optional[Callable[[], List[tuple]]] = None,
        first_forward_starts: Optional[Sequence[float]] = None,
    ) -> None:
        self.schedule_name = schedule_name
        self.iteration_time = iteration_time
        self.peak_memory = peak_memory
        self.oom_devices = oom_devices
        self.num_devices = num_devices
        self._raw = raw_events
        self._raw_factory = raw_events_factory
        self._materialized: Optional[List[TimelineEvent]] = None
        self._first_forward = first_forward_starts

    def __repr__(self) -> str:
        return (
            f"ExecutionResult(schedule_name={self.schedule_name!r}, "
            f"iteration_time={self.iteration_time!r}, "
            f"peak_memory={self.peak_memory!r}, "
            f"oom_devices={self.oom_devices!r}, "
            f"num_devices={self.num_devices!r})"
        )

    @property
    def raw_events(self) -> List[tuple]:
        """Raw event tuples ``(device, category, label, start, end, phase)``."""
        if self._raw is None:
            factory = self._raw_factory
            self._raw = factory() if factory is not None else []
        return self._raw

    @property
    def events(self) -> List[TimelineEvent]:
        """The timeline as TimelineEvent objects (built on first access)."""
        if self._materialized is None:
            self._materialized = [TimelineEvent(*e) for e in self.raw_events]
        return self._materialized

    @property
    def oom(self) -> bool:
        return bool(self.oom_devices)

    def busy_time(self, device: int) -> float:
        """Total compute-busy seconds of one device (from raw tuples)."""
        return sum(
            e[4] - e[3] for e in self.raw_events
            if e[0] == device and (e[1] == "F" or e[1] == "B")
        )

    def bubble_fraction(self, device: int) -> float:
        if self.iteration_time <= 0:
            return 0.0
        return 1.0 - self.busy_time(device) / self.iteration_time

    def first_forward_start(self, device: int) -> float:
        """When ``device`` first begins forward compute (startup metric).

        ``float("inf")`` when the device never ran a forward pass (failed
        or degenerate schedules), letting metric code report the
        configuration as infeasible instead of crashing.
        """
        if self._first_forward is not None:
            return self._first_forward[device]
        starts = [
            e[3] for e in self.raw_events if e[0] == device and e[1] == "F"
        ]
        return min(starts) if starts else float("inf")


@dataclass
class _DeviceState:
    pc: int = 0
    clock: float = 0.0
    held_bytes: float = 0.0
    peak_bytes: float = 0.0
    #: set when the device is parked on an unmatched rendezvous op.
    waiting_key: Optional[Tuple] = None
    #: set when the device is parked on a missing eager deposit.
    waiting_tag: Optional[str] = None


class _Lowerer:
    """Lowers schedule ops into flat instruction tuples.

    Stateless apart from the cost model handles; shared by the event
    engine and the static-graph executor so both consume the exact same
    precomputed durations and link times (a prerequisite for their
    bit-identical results).
    """

    def __init__(
        self, cluster: Cluster, device_map: List[int], comm: CommModel
    ) -> None:
        self.cluster = cluster
        self.device_map = device_map
        self.comm = comm

    def _direction_time(self, src: int, dst: int, num_bytes: float) -> float:
        if num_bytes <= 0:
            return 0.0
        return self.comm.p2p_time_between(
            self.cluster, self.device_map[src], self.device_map[dst], num_bytes
        )

    def _exchange_time(self, op: CommOp) -> float:
        """Full-duplex: the exchange lasts as long as its slower direction."""
        fwd = sum(t.bytes for t in op.transfers if t.src == op.device)
        bwd = sum(t.bytes for t in op.transfers if t.dst == op.device)
        return max(
            self._direction_time(op.device, op.peer, fwd),
            self._direction_time(op.peer, op.device, bwd),
        )

    def compile_op(self, dev: int, op: object) -> tuple:
        if isinstance(op, ComputeOp):
            return (
                _COMPUTE, op.label(), op.duration, op.alloc_bytes,
                op.free_bytes, op.workspace_bytes, op.kind, op.phase,
            )
        if not isinstance(op, CommOp):
            raise TypeError(f"unsupported op in device program: {op!r}")
        label = op.label()
        if op.rendezvous:
            pair = (min(dev, op.peer), max(dev, op.peer))
            return (
                _RENDEZVOUS, label, (pair, op.tag_set), op.peer,
                self._exchange_time(op),
            )
        recvs = tuple(
            (t.tag, self._direction_time(t.src, t.dst, t.bytes))
            for t in op.receives()
        )
        sends = tuple(
            (t.tag, self._direction_time(t.src, t.dst, t.bytes))
            for t in op.sends()
        )
        latency = self.cluster.hw.link_latency if sends else 0.0
        return (_EAGER, label, recvs, sends, "wait" + label[4:], latency)


def check_device_map(
    num_devices: int, cluster: Cluster, device_map: Optional[Sequence[int]]
) -> List[int]:
    """``device_map`` as a list, or the identity map when it is ``None``.

    Raises ``ValueError`` unless it places each of the ``num_devices``
    schedule devices on its own device of ``cluster``.
    """
    if device_map is None:
        device_map = range(num_devices)
    if len(device_map) != num_devices:
        raise ValueError("device_map must cover every schedule device")
    for d in device_map:
        cluster._check(d)
    if len(set(device_map)) != num_devices:
        raise ValueError(
            f"device_map {list(device_map)} places two schedule devices "
            "on one cluster device"
        )
    return list(device_map)


def lower_programs(
    schedule: Schedule,
    cluster: Cluster,
    device_map: List[int],
    *,
    comm: Optional[CommModel] = None,
) -> List[List[tuple]]:
    """Lower every op of ``schedule``'s programs to an instruction tuple.

    The programs are lowered afresh on every call, so an edited schedule
    lowers as edited.  Comm symmetry is validated on a schedule's first
    lowering only.
    """
    if not schedule.__dict__.get("_symmetry_checked"):
        schedule.validate_comm_symmetry()
        schedule.__dict__["_symmetry_checked"] = True
    lowerer = _Lowerer(cluster, device_map, comm or CommModel(cluster.hw))
    return [
        [lowerer.compile_op(dev, op) for op in program]
        for dev, program in enumerate(schedule.programs)
    ]


class Engine:
    """Executes one schedule; construct per run (holds mutable state)."""

    def __init__(
        self,
        schedule: Schedule,
        cluster: Cluster,
        *,
        device_map: Optional[List[int]] = None,
    ) -> None:
        self.schedule = schedule
        self.cluster = cluster
        self.comm = CommModel(cluster.hw)
        n = schedule.num_devices
        self.device_map = check_device_map(n, cluster, device_map)
        self._programs = lower_programs(
            schedule, cluster, self.device_map, comm=self.comm
        )

        self._states = [_DeviceState() for _ in range(n)]
        self._raw_events: List[tuple] = []
        #: rendezvous posts: (pair, tag_set) -> (device, ready_time)
        self._posts: Dict[Tuple, Tuple[int, float]] = {}
        #: eager deposits: tag -> arrival time
        self._deposits: Dict[str, float] = {}
        #: eager receivers parked on a missing deposit: tag -> devices
        self._tag_waiters: Dict[str, List[int]] = {}
        #: ready-queue scheduler state
        self._ready: Deque[int] = deque()
        self._enqueued: List[bool] = [False] * n

    # -- execution ---------------------------------------------------------

    def run(self) -> ExecutionResult:
        n = self.schedule.num_devices
        ready = self._ready
        enqueued = self._enqueued
        for dev in range(n):
            ready.append(dev)
            enqueued[dev] = True
        while ready:
            dev = ready.popleft()
            enqueued[dev] = False
            while self._advance(dev):
                pass
        return self._finish()

    def _finish(self) -> ExecutionResult:
        n = self.schedule.num_devices
        programs = self._programs
        finished = all(
            self._states[d].pc == len(programs[d]) for d in range(n)
        )
        if not finished:
            raise DeadlockError(self._diagnose())

        iteration_time = max(
            (e[4] for e in self._raw_events), default=0.0
        )
        peaks = [
            self.schedule.static_bytes[d] + self._states[d].peak_bytes
            for d in range(n)
        ]
        capacity = self.cluster.hw.gpu_memory
        ooms = [d for d in range(n) if peaks[d] > capacity]
        return ExecutionResult(
            schedule_name=self.schedule.name,
            iteration_time=iteration_time,
            peak_memory=peaks,
            oom_devices=ooms,
            num_devices=n,
            raw_events=self._raw_events,
        )

    def _wake(self, dev: int) -> None:
        """Re-enqueue a device whose wait condition was just satisfied."""
        if not self._enqueued[dev]:
            self._enqueued[dev] = True
            self._ready.append(dev)

    def _advance(self, dev: int) -> bool:
        """Try to execute the next op of ``dev``; True if it ran."""
        program = self._programs[dev]
        state = self._states[dev]
        pc = state.pc
        if pc >= len(program) or state.waiting_key is not None:
            return False
        instr = program[pc]
        code = instr[0]

        if code == _COMPUTE:
            _, label, duration, alloc, free, workspace, kind, phase = instr
            start = state.clock
            end = start + duration
            held = state.held_bytes + alloc
            if held + workspace > state.peak_bytes:
                state.peak_bytes = held + workspace
            state.held_bytes = held - free
            state.clock = end
            state.pc = pc + 1
            self._raw_events.append((dev, kind, label, start, end, phase))
            return True

        if code == _RENDEZVOUS:
            _, label, key, _peer, exch = instr
            posted = self._posts.get(key)
            if posted is None or posted[0] == dev:
                if posted is None:
                    self._posts[key] = (dev, state.clock)
                    state.waiting_key = key
                return False
            peer, peer_ready = posted
            del self._posts[key]
            peer_state = self._states[peer]
            start = max(state.clock, peer_ready)
            end = start + exch
            state.clock = end
            state.pc = pc + 1
            state.waiting_key = None
            peer_state.clock = end
            peer_state.pc += 1
            peer_state.waiting_key = None
            events = self._raw_events
            events.append((dev, "comm", label, start, end, ""))
            events.append((peer, "comm", label, start, end, ""))
            # The first-arriving endpoint was parked on the post; it can
            # run again.
            self._wake(peer)
            return True

        # code == _EAGER
        _, label, recvs, sends, wait_label, latency = instr
        deposits = self._deposits
        start = state.clock
        clock = start
        comm_begin = start
        if recvs:
            arrivals = []
            for tag, _dur in recvs:
                arrival = deposits.get(tag)
                if arrival is None:
                    # Payload not sent yet: park until this tag is deposited.
                    state.waiting_tag = tag
                    self._tag_waiters.setdefault(tag, []).append(dev)
                    return False
                arrivals.append(arrival)
            state.waiting_tag = None
            for tag, _dur in recvs:
                del deposits[tag]
            clock = max(start, *arrivals)
            # The receiver is stalled until the payload lands, but the wire
            # is only busy for the transfer itself: record the blocked
            # window as an explicit idle span and the comm span from the
            # transfer's true start.
            if clock > start:
                comm_begin = max(
                    start,
                    min(
                        arrival - dur
                        for (_tag, dur), arrival in zip(recvs, arrivals)
                    ),
                )
                if comm_begin > start:
                    self._raw_events.append(
                        (dev, "idle", wait_label, start, comm_begin, "")
                    )
        if sends:
            tag_waiters = self._tag_waiters
            for tag, dur in sends:
                deposits[tag] = clock + dur
                waiters = tag_waiters.pop(tag, None)
                if waiters:
                    for waiter in waiters:
                        self._wake(waiter)
            # Posting an eager send costs one launch latency on the sender.
            clock += latency
        state.clock = clock
        state.pc = pc + 1
        self._raw_events.append((dev, "comm", label, comm_begin, clock, ""))
        return True

    def _diagnose(self) -> str:
        lines = ["pipeline deadlock; per-device state:"]
        for dev, state in enumerate(self._states):
            program = self._programs[dev]
            if state.pc >= len(program):
                lines.append(f"  dev{dev}: finished")
                continue
            label = program[state.pc][1]
            if state.waiting_key is not None:
                pair, tags = state.waiting_key
                wait = f", parked on rendezvous {sorted(tags)} with dev pair {pair}"
            elif state.waiting_tag is not None:
                wait = f", parked on missing deposit {state.waiting_tag!r}"
            else:
                wait = ""
            lines.append(
                f"  dev{dev}: blocked at op {state.pc}/{len(program)} "
                f"{label} (clock={state.clock:.6f}){wait}"
            )
        return "\n".join(lines)


def execute(
    schedule: Schedule,
    cluster: Cluster,
    *,
    device_map: Optional[List[int]] = None,
) -> ExecutionResult:
    """Convenience wrapper: build an engine and run the schedule once."""
    return Engine(schedule, cluster, device_map=device_map).run()
