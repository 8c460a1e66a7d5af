"""Direct walks: a keyed schedule shape's compiled DAG, emitted without Ops.

The compiled executor (:mod:`repro.sim.graph_exec`) caches one *shape
template* per builder shape key (:class:`~repro.schedules.base.ScheduleShape`):
the costless DAG plus the cost-table slot of every value.  This module
records templates.  :func:`shape_walk` runs the key's family order
function (:data:`repro.schedules.ORDERS`, the one the Op programs come
from too) on an :class:`_Emitter`, which produces the :class:`_Walk` of
the key — nodes, edges, per-device replay records, memory counts and
cost slots — together with the descriptor of every slot
(:class:`_SlotTable`).

For every op the order function describes, the emitter writes what
lowering that op (:func:`~repro.sim.engine.lower_programs`) and walking
the lowering (:func:`~repro.sim.graph_exec._walk_programs`) would write
for it, with a slot in place of each cost value.  Node ids, edge order,
replay records, memory counts and receive slots therefore equal the walk
of the built schedule; ``tests/sim/test_direct_walks.py`` holds every
family to that.  The Op route stays the spec, and the event engine,
timelines and traces still run on the Ops.

Rendezvous node sharing follows the reference walk's device order: the
lower-indexed endpoint of an exchange posts the node, and the
higher-indexed one links to the oldest post of the same tag set.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.schedules import ORDERS
from repro.schedules.base import Unit, unit_label

#: record opcodes inside per-device event-replay programs.
_REC_COMPUTE = 0
_REC_RENDEZVOUS = 1
_REC_EAGER = 2

#: cost-table slots every template starts with.
_ZERO = 0
_LATENCY = 1


class GraphCompileError(RuntimeError):
    """The schedule cannot be lowered to an acyclic static graph.

    Raised for dependency cycles (the static form of a deadlock),
    unmatched rendezvous ops, and deposit tags that are reused or never
    sent.  :func:`~repro.sim.graph_exec.execute_fast` reacts by falling
    back to the event engine, which either executes the schedule or
    raises :class:`~repro.sim.engine.DeadlockError` with a per-device
    diagnosis.
    """


class _Walk:
    """Everything one pass over a schedule's programs produces.

    The walk of lowered programs (:func:`~repro.sim.graph_exec._walk_programs`)
    records cost values; a direct walk of a shape key records the
    cost-table slot of each value instead.  Either way, two schedules of
    one shape yield the same structure: node ids, edge order, replay
    records and receive order all come out identical.
    """

    __slots__ = (
        "node_add", "e_dst", "e_src", "e_w", "recv_durs",
        "records", "first_f", "mem_deltas", "workspace", "mem_counts",
        "s_node", "s_edge", "s_recv", "s_mem", "s_ws",
    )

    def __init__(self, num_devices: int) -> None:
        self.node_add: List[float] = []
        self.e_dst: List[int] = []
        self.e_src: List[int] = []
        self.e_w: List[float] = []
        self.recv_durs: List[float] = []
        #: per device, one replay record per op, naming walk-order nodes.
        self.records: List[List[tuple]] = [[] for _ in range(num_devices)]
        self.first_f: List[int] = [-1] * num_devices
        self.mem_deltas: List[float] = []
        self.workspace: List[float] = []
        self.mem_counts: List[int] = [0] * num_devices
        #: cost-table slot of every value above, in the same order.
        self.s_node: List[int] = []
        self.s_edge: List[int] = []
        self.s_recv: List[int] = []
        self.s_mem: List[int] = []
        self.s_ws: List[int] = []

    @property
    def num_nodes(self) -> int:
        return max(len(self.node_add), len(self.s_node))


class _SlotTable(dict):
    """Numbers cost descriptors in first-use order: ``table[desc]`` is the
    slot of ``desc``, a new one the first time it is asked for.

    A descriptor names one per-query cost by what it is a function of:

    * ``(kind, device, chunk, half)`` with kind ``"F"``/``"B"`` (duration),
      ``"S"`` (stash bytes) or ``"W"`` (workspace bytes) of a full or
      half unit of one stage or model chunk;
    * ``("D", src, dst, half)``: the wire time of one full or half
      payload from device ``src`` to ``dst``;
    * ``("X", device, peer, sent, received)``: a full-duplex rendezvous
      exchange, the slower of the two directions, where ``sent`` and
      ``received`` list the half flag of each payload per direction;
    * ``("0",)`` and ``("L",)``: zero and the link latency.
    """

    def __init__(self) -> None:
        super().__init__({("0",): _ZERO, ("L",): _LATENCY})
        self.descs: List[tuple] = [("0",), ("L",)]

    def __missing__(self, desc: tuple) -> int:
        slot = self[desc] = len(self.descs)
        self.descs.append(desc)
        return slot


class _Emitter:
    """Appends ops to a walk one device program at a time, as the walk of
    their lowering would: every op is a node (a rendezvous shares its
    peer's) with a program-order edge from the device's previous op.

    Its four public calls are the sink protocol the order functions drive
    (see :class:`repro.schedules.base._OpSink`, the other sink)."""

    def __init__(self, num_devices: int) -> None:
        self.walk = _Walk(num_devices)
        self.slot = _SlotTable()
        #: the current device's ops so far: node ids and, per op, the
        #: slot of the weight on its edge to the next op.
        self._chain: List[int] = []
        self._chain_s: List[int] = []
        #: rendezvous nodes posted by the lower endpoint, oldest first,
        #: keyed by (lower device, sorted tag tuple).
        self._posts: Dict[tuple, List[int]] = {}
        #: eager deposits: tag -> (sender node, wire slot).
        self._sends: Dict[str, Tuple[int, int]] = {}
        #: eager receives in walk order: (recv node, tag, recv_list).
        self._recvs: List[Tuple[int, str, list]] = []
        #: compute labels by (kind, unit).
        self._labels: Dict[tuple, str] = {}

    def device(self, x: int) -> None:
        """Start device ``x``'s program."""
        self._flush()
        self.x = x
        self._records = self.walk.records[x]
        #: this device's (F, B, stash, workspace) slots by (chunk, unit[1]).
        self._stage: Dict[tuple, Tuple[int, int, int, int]] = {}

    def _flush(self) -> None:
        """Append the program-order edges of the current device's ops."""
        chain, chain_s = self._chain, self._chain_s
        walk = self.walk
        walk.e_dst += chain[1:]
        walk.e_src += chain[:-1]
        walk.s_edge += chain_s[:-1]
        chain.clear()
        chain_s.clear()

    def compute(self, kind: str, chunk: int, unit: Unit, phase: str) -> None:
        """A ComputeOp: an F allocates its stash, a B frees it."""
        walk = self.walk
        x = self.x
        slots = self._stage.get((chunk, unit[1]))
        if slots is None:
            half = unit[1] != -1
            slots = self._stage[chunk, unit[1]] = tuple(
                self.slot[c, x, chunk, half] for c in "FBSW"
            )
        label = self._labels.get((kind, unit))
        if label is None:
            label = self._labels[kind, unit] = f"{kind}({unit_label(unit)})"
        nid = len(walk.s_node)
        s_dur = slots[0] if kind == "F" else slots[1]
        walk.s_node.append(s_dur)
        self._chain.append(nid)
        self._chain_s.append(s_dur)
        self._records.append((_REC_COMPUTE, nid, label, kind, phase))
        if kind == "F":
            walk.s_mem += (slots[2], _ZERO)
            if walk.first_f[x] < 0:
                walk.first_f[x] = nid
        else:
            walk.s_mem += (_ZERO, slots[2])
        walk.s_ws.append(slots[3])
        walk.mem_counts[x] += 1

    def exchange(
        self,
        peer: int,
        sent: Optional[Tuple[str, Unit]],
        received: Optional[Tuple[str, Unit]],
    ) -> None:
        """A synchronous CommOp with ``peer`` carrying at most one
        ``(tag, unit)`` payload each way, the send listed first."""
        x = self.x
        if sent is None:
            tag, unit = received
            tags = (tag,)
            label = "comm[←" + tag + "]"
            desc = ("X", x, peer, (), (unit[1] != -1,))
        elif received is None:
            tag, unit = sent
            tags = (tag,)
            label = "comm[→" + tag + "]"
            desc = ("X", x, peer, (unit[1] != -1,), ())
        else:
            (a, unit_a), (b, unit_b) = sent, received
            tags = (a, b) if a < b else (b, a)
            label = "comm[→" + a + ",←" + b + "]"
            desc = ("X", x, peer, (unit_a[1] != -1,), (unit_b[1] != -1,))
        s_exch = self.slot[desc]
        s_node = self.walk.s_node
        if x < peer:
            nid = len(s_node)
            s_node.append(s_exch)
            self._posts.setdefault((x, tags), []).append(nid)
        else:
            queue = self._posts.get((peer, tags))
            if not queue:
                raise GraphCompileError(
                    f"rendezvous op with tags {list(tags)} between device "
                    f"pair {(peer, x)} has no matching peer op"
                )
            nid = queue.pop(0)
            if not queue:
                del self._posts[peer, tags]
        self._chain.append(nid)
        self._chain_s.append(s_exch)
        self._records.append((_REC_RENDEZVOUS, nid, label))

    def eager(self, peer: int, send: bool, tag: str, unit: Unit) -> None:
        """A buffered CommOp carrying one payload to or from ``peer``: the
        sender deposits it after the link latency, the receiver waits for
        its wire time."""
        walk = self.walk
        x = self.x
        nid = len(walk.s_node)
        self._chain.append(nid)
        recv_list: list = []
        if send:
            walk.s_node.append(_LATENCY)
            self._chain_s.append(_LATENCY)
            self._sends[tag] = (nid, self.slot["D", x, peer, unit[1] != -1])
            label = "comm[→" + tag + "]"
        else:
            walk.s_node.append(_ZERO)
            self._chain_s.append(_ZERO)
            walk.s_recv.append(self.slot["D", peer, x, unit[1] != -1])
            self._recvs.append((nid, tag, recv_list))
            label = "comm[←" + tag + "]"
        self._records.append(
            (_REC_EAGER, nid, label, "wait" + label[4:], recv_list)
        )

    def finish(self) -> Tuple[_Walk, List[tuple]]:
        """Append the deposit edges; the walk and its slot descriptors."""
        self._flush()
        if self._posts:
            lower, tags = next(iter(self._posts))
            raise GraphCompileError(
                f"rendezvous op with tags {list(tags)} posted by device "
                f"{lower} has no matching peer op"
            )
        walk = self.walk
        for ridx, (rnid, tag, recv_list) in enumerate(self._recvs):
            snid, s_wire = self._sends[tag]
            widx = len(walk.s_edge)
            walk.e_dst.append(rnid)
            walk.e_src.append(snid)
            walk.s_edge.append(s_wire)
            recv_list.append((snid, widx, ridx))
        return walk, self.slot.descs


def shape_walk(key: tuple) -> Tuple[_Walk, List[tuple]]:
    """The direct walk of a builder's shape key and its slot descriptors."""
    emitter = _Emitter(key[1])
    ORDERS[key[0]](emitter, *key[1:])
    return emitter.finish()
