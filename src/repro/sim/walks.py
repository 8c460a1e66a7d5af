"""Direct walks: a keyed schedule shape's compiled DAG, emitted without Ops.

The compiled executor (:mod:`repro.sim.graph_exec`) caches one *shape
template* per builder shape key (:class:`~repro.schedules.base.ScheduleShape`):
the costless DAG plus the cost-table slot of every value.  This module
records templates.  One walker per schedule family emits the
:class:`_Walk` of a key — nodes, edges, per-device replay records, memory
counts and cost slots — together with the descriptor of every slot
(:class:`_SlotTable`):

* :func:`family_walk` — 1F1B and the Slicer's sliced 1F1B, key
  ``("1f1b", depth, units, eager)``;
* :func:`gpipe_walk` — key ``("gpipe", depth, m)``;
* :func:`interleaved_walk` — key ``("interleaved", depth, m, chunks)``.

Each walker follows its family's Op emitter (``_emit_1f1b``,
``_emit_gpipe``, ``_emit_interleaved``) op for op, and writes what
lowering that op (:func:`~repro.sim.engine.lower_programs`) and walking
the lowering (:func:`~repro.sim.graph_exec._walk_programs`) would write
for it, with a slot in place of each cost value.  Node ids, edge order,
replay records, memory counts and receive slots therefore equal the walk
of the built schedule; ``tests/sim/test_direct_walks.py`` holds every
family to that.  The emitters stay the spec, and the event engine,
timelines and traces still run on their Ops.

Rendezvous node sharing follows the reference walk's device order: the
lower-indexed endpoint of an exchange posts the node, and the
higher-indexed one links to the oldest post of the same tag set.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.schedules.base import Unit, unit_label
from repro.schedules.interleaved import (
    _chunk_of,
    _microbatch_of,
    _warmup_count,
)

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


class _SlotTable:
    """Numbers cost descriptors in first-use order.

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
        self.descs: List[tuple] = [("0",), ("L",)]
        self._slots: Dict[tuple, int] = {("0",): _ZERO, ("L",): _LATENCY}

    def __call__(self, desc: tuple) -> int:
        slot = self._slots.get(desc)
        if slot is None:
            slot = self._slots[desc] = len(self.descs)
            self.descs.append(desc)
        return slot


class _Emitter:
    """Appends ops to a walk one device program at a time, as the walk of
    their lowering would: every op is a node (a rendezvous shares its
    peer's) with a program-order edge from the device's previous op."""

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

    def device(self, x: int) -> None:
        """Start device ``x``'s program."""
        self._flush()
        self.x = x
        self._records = self.walk.records[x]

    def _flush(self) -> None:
        """Append the program-order edges of the current device's ops."""
        chain, chain_s = self._chain, self._chain_s
        walk = self.walk
        walk.e_dst += chain[1:]
        walk.e_src += chain[:-1]
        walk.s_edge += chain_s[:-1]
        chain.clear()
        chain_s.clear()

    def compute(
        self, kind: str, label: str, phase: str,
        s_dur: int, s_stash: int, s_ws: int,
    ) -> None:
        """A ComputeOp: an F allocates its stash, a B frees it."""
        walk = self.walk
        x = self.x
        nid = len(walk.s_node)
        walk.s_node.append(s_dur)
        self._chain.append(nid)
        self._chain_s.append(s_dur)
        self._records.append((_REC_COMPUTE, nid, label, kind, phase))
        if kind == "F":
            walk.s_mem += (s_stash, _ZERO)
            if walk.first_f[x] < 0:
                walk.first_f[x] = nid
        else:
            walk.s_mem += (_ZERO, s_stash)
        walk.s_ws.append(s_ws)
        walk.mem_counts[x] += 1

    def rendezvous(
        self, peer: int, tags: Tuple[str, ...], label: str, s_exch: int
    ) -> None:
        """A synchronous CommOp with ``peer`` carrying the sorted ``tags``."""
        x = self.x
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

    def eager(self, send: bool, tag: str, s_wire: int) -> None:
        """A buffered CommOp carrying one payload: the sender deposits it
        after the link latency, the receiver waits for its wire time."""
        walk = self.walk
        nid = len(walk.s_node)
        s_latency = _LATENCY if send else _ZERO
        walk.s_node.append(s_latency)
        self._chain.append(nid)
        self._chain_s.append(s_latency)
        label = ("comm[→" if send else "comm[←") + tag + "]"
        recv_list: list = []
        if send:
            self._sends[tag] = (nid, s_wire)
        else:
            walk.s_recv.append(s_wire)
            self._recvs.append((nid, tag, recv_list))
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


def family_walk(
    depth: int, units: Sequence[Unit], eager: bool
) -> Tuple[_Walk, List[tuple]]:
    """The walk of the 1F1B-family shape ``("1f1b", depth, units, eager)``.

    Mirrors ``_emit_1f1b``: warmup forwards, fused steady exchanges and
    cooldown backwards over ``units``.  With ``eager`` the activation of
    every half unit travels as a buffered send, which splits any fused
    exchange carrying it.
    """
    n = depth
    U = len(units)
    e = _Emitter(n)
    slot = e.slot
    labels = [unit_label(u) for u in units]
    halves = sorted({u[1] for u in units})

    for x in range(n):
        e.device(x)
        #: this stage's (F, B, stash, workspace) slots per unit half
        #: (-1 whole, 0/1 sliced).
        stage = {
            h: tuple(slot((c, x, 0, h != -1)) for c in "FBSW")
            for h in halves
        }

        def compute(kind: str, i: int, phase: str) -> None:
            s_f, s_b, s_stash, s_ws = stage[units[i][1]]
            e.compute(
                kind, f"{kind}({labels[i]})", phase,
                s_f if kind == "F" else s_b, s_stash, s_ws,
            )

        def act(i: int, src: int) -> str:
            return f"act:{labels[i]}:{src}>{src + 1}"

        def grad(i: int, src: int) -> str:
            return f"grad:{labels[i]}:{src}>{src - 1}"

        def is_eager(i: int) -> bool:
            return eager and units[i][1] != -1

        def exchange(
            peer: int,
            sent: Optional[Tuple[str, int]],
            received: Optional[Tuple[str, int]],
        ) -> None:
            """One rendezvous of at most one (tag, unit index) payload per
            direction; a fused one lists the send first."""
            halves_sent = () if sent is None else (units[sent[1]][1] != -1,)
            halves_received = (
                () if received is None else (units[received[1]][1] != -1,)
            )
            if sent is None:
                tags = (received[0],)
                label = "comm[←" + received[0] + "]"
            elif received is None:
                tags = (sent[0],)
                label = "comm[→" + sent[0] + "]"
            else:
                a, b = sent[0], received[0]
                tags = (a, b) if a < b else (b, a)
                label = "comm[→" + a + ",←" + b + "]"
            e.rendezvous(peer, tags, label, slot(
                ("X", x, peer, halves_sent, halves_received)
            ))

        def send_act(i: int) -> None:
            t = act(i, x)
            if is_eager(i):
                e.eager(True, t, slot(("D", x, x + 1, True)))
            else:
                exchange(x + 1, (t, i), None)

        def recv_act(i: int) -> None:
            t = act(i, x - 1)
            if is_eager(i):
                e.eager(False, t, slot(("D", x - 1, x, True)))
            else:
                exchange(x - 1, None, (t, i))

        w = min(U, n - 1 - x)
        s = U - w
        for k in range(w):
            if x > 0:
                recv_act(k)
            compute("F", k, "warmup")
            if x < n - 1:
                send_act(k)
        if s > 0 and x > 0:
            recv_act(w)
        for j in range(s):
            f = w + j
            compute("F", f, "steady")
            if x < n - 1:
                gt = (grad(j, x + 1), j)
                if is_eager(f):
                    send_act(f)
                    exchange(x + 1, None, gt)
                else:
                    exchange(x + 1, (act(f, x), f), gt)
            compute("B", j, "steady")
            if x > 0:
                gt = (grad(j, x), j)
                if j < s - 1 and is_eager(f + 1):
                    exchange(x - 1, gt, None)
                    recv_act(f + 1)
                elif j < s - 1:
                    exchange(x - 1, gt, (act(f + 1, x - 1), f + 1))
                else:
                    exchange(x - 1, gt, None)
        for k in range(s, U):
            if x < n - 1:
                exchange(x + 1, None, (grad(k, x + 1), k))
            compute("B", k, "cooldown")
            if x > 0:
                exchange(x - 1, (grad(k, x), k), None)
    return e.finish()


def gpipe_walk(depth: int, m: int) -> Tuple[_Walk, List[tuple]]:
    """The walk of the GPipe shape ``("gpipe", depth, m)``.

    Mirrors ``_emit_gpipe``: every forward, then every backward in
    reverse micro-batch order, all communication buffered.
    """
    n = depth
    e = _Emitter(n)
    slot = e.slot
    for x in range(n):
        e.device(x)
        s_f, s_b, s_stash, s_ws = (slot((c, x, 0, False)) for c in "FBSW")
        up = x > 0
        down = x < n - 1
        if up:
            s_from_up = slot(("D", x - 1, x, False))
        if down:
            s_to_down = slot(("D", x, x + 1, False))
        for mb in range(m):
            if up:
                e.eager(False, f"act:{mb}:{x - 1}>{x}", s_from_up)
            e.compute("F", f"F({mb})", "warmup", s_f, s_stash, s_ws)
            if down:
                e.eager(True, f"act:{mb}:{x}>{x + 1}", s_to_down)
        if down:
            s_from_down = slot(("D", x + 1, x, False))
        if up:
            s_to_up = slot(("D", x, x - 1, False))
        for mb in reversed(range(m)):
            if down:
                e.eager(False, f"grad:{mb}:{x + 1}>{x}", s_from_down)
            e.compute("B", f"B({mb})", "cooldown", s_b, s_stash, s_ws)
            if up:
                e.eager(True, f"grad:{mb}:{x}>{x - 1}", s_to_up)
    return e.finish()


def interleaved_walk(
    depth: int, m: int, chunks: int
) -> Tuple[_Walk, List[tuple]]:
    """The walk of the interleaved shape ``("interleaved", depth, m,
    chunks)``.

    Mirrors ``_emit_interleaved``: Megatron's virtual-micro-batch order
    over ``chunks`` model chunks per device, all communication buffered.
    """
    n, v = depth, chunks
    if n < 2:
        # Every chunk hop would be a Transfer from the device to itself.
        raise ValueError("transfer to self")
    total = m * v
    last = n * v - 1
    e = _Emitter(n)
    slot = e.slot
    for x in range(n):
        e.device(x)
        nw = _warmup_count(n, m, v, x)
        #: per chunk, its (F, B, stash, workspace) slots.
        stage = [
            tuple(slot((c, x, chunk, False)) for c in "FBSW")
            for chunk in range(v)
        ]

        def fwd(k: int) -> None:
            c = _chunk_of(k, n, v, True)
            mb = _microbatch_of(k, n, v)
            vs = c * n + x
            if vs > 0:
                src = (vs - 1) % n
                e.eager(False, f"act:{mb}:vs{vs - 1}>vs{vs}",
                        slot(("D", src, x, False)))
            s_f, _, s_stash, s_ws = stage[c]
            e.compute("F", f"F({mb})", "warmup" if k < nw else "steady",
                      s_f, s_stash, s_ws)
            if vs < last:
                dst = (vs + 1) % n
                e.eager(True, f"act:{mb}:vs{vs}>vs{vs + 1}",
                        slot(("D", x, dst, False)))

        def bwd(k: int) -> None:
            c = _chunk_of(k, n, v, False)
            mb = _microbatch_of(k, n, v)
            vs = c * n + x
            if vs < last:
                src = (vs + 1) % n
                e.eager(False, f"grad:{mb}:vs{vs + 1}>vs{vs}",
                        slot(("D", src, x, False)))
            _, s_b, s_stash, s_ws = stage[c]
            e.compute("B", f"B({mb})",
                      "steady" if k < total - nw else "cooldown",
                      s_b, s_stash, s_ws)
            if vs > 0:
                dst = (vs - 1) % n
                e.eager(True, f"grad:{mb}:vs{vs}>vs{vs - 1}",
                        slot(("D", x, dst, False)))

        for k in range(nw):
            fwd(k)
        for j in range(total - nw):
            fwd(nw + j)
            bwd(j)
        for k in range(total - nw, total):
            bwd(k)
    return e.finish()


#: the direct walker of each shape-key family (element 0 of the key).
_WALKERS: Dict[str, Callable[..., Tuple[_Walk, List[tuple]]]] = {
    "1f1b": family_walk,
    "gpipe": gpipe_walk,
    "interleaved": interleaved_walk,
}


def shape_walk(key: tuple) -> Tuple[_Walk, List[tuple]]:
    """The direct walk of a builder's shape key and its slot descriptors."""
    return _WALKERS[key[0]](*key[1:])
