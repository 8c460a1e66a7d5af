"""Table walks: a keyed schedule shape's compiled DAG, built from its op table.

The compiled executor (:mod:`repro.sim.graph_exec`) caches one *shape
template* per builder shape key (:class:`~repro.schedules.base.ScheduleShape`):
the costless DAG plus the cost-table slot of every value.  This module
records templates.  :func:`shape_walk` builds the key's op table with
its family's order (:data:`repro.schedules.ORDERS`, the one the Op
programs come from too) and turns the table into the key's
:class:`_TableWalk` with array operations, never one Python call per op:

* node ids are a cumulative sum over the rows, device-major; the
  higher-indexed endpoint of a rendezvous shares the node of the oldest
  unmatched post of the same tag set by the lower-indexed one, which a
  stable sort of each side's (device pair, tag set) keys pairs up;
* program-order edges join each row to the next row of its device, and
  deposit edges join each eager receive to the send of its message,
  found by a sorted search;
* the cost-table slot of every node, edge, eager receive, memory delta
  and workspace value is a column: each row's costs get integer codes,
  numbered in code order, which also lists the descriptors;
* per-device replay records, which only timelines, traces and tests
  read, are built on first read.

Node ids, edge order, replay records, memory counts and receive slots
therefore equal the walk of the built schedule
(:func:`~repro.sim.graph_exec._walk_programs` over
:func:`~repro.sim.engine.lower_programs`), and a table the Op route
rejects raises the same :class:`GraphCompileError`;
``tests/sim/test_direct_walks.py`` and ``tests/sim/test_table_walks.py``
hold every family to that.  The Op route stays the spec, and the event
engine, timelines and traces still run on the Ops.

A slot descriptor names one per-query cost by what it is a function of:

* ``(kind, device, chunk, half)`` with kind ``"F"``/``"B"`` (duration),
  ``"S"`` (stash bytes) or ``"W"`` (workspace bytes) of a full or half
  unit of one stage or model chunk;
* ``("D", src, dst, half)``: the wire time of one full or half payload
  from device ``src`` to ``dst``;
* ``("X", device, peer, sent, received)``: a full-duplex rendezvous
  exchange, the slower of the two directions, where ``sent`` and
  ``received`` list the half flag of each payload per direction;
* ``("0",)`` and ``("L",)``: zero and the link latency.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import List, Tuple

import numpy as np

from repro.schedules import ORDERS
from repro.schedules.base import (
    OP_B,
    OP_EXCHANGE,
    OP_F,
    OP_RECV,
    OP_SEND,
    PHASES,
    OpTable,
    unit_label,
)

#: record opcodes inside per-device event-replay programs.
_REC_COMPUTE = 0
_REC_RENDEZVOUS = 1
_REC_EAGER = 2

#: cost-table slots every template starts with.
_ZERO = 0
_LATENCY = 1

#: a pass's cost descriptors by code: duration (F or B), stash, workspace.
_PASS_COSTS = np.array(list("FBSW"))
#: an exchange direction's payload half flags by state code: none, a full
#: unit, a half unit.
_HALVES = ((), (False,), (True,))


class GraphCompileError(RuntimeError):
    """The schedule cannot be lowered to an acyclic static graph.

    Raised for dependency cycles (the static form of a deadlock),
    unmatched rendezvous ops, and deposit tags that are reused or never
    sent.  :func:`~repro.sim.graph_exec.execute_fast` reacts by falling
    back to the event engine, which either executes the schedule or
    raises :class:`~repro.sim.engine.DeadlockError` with a per-device
    diagnosis.
    """


def unmatched_rendezvous(pair: tuple, tags) -> GraphCompileError:
    return GraphCompileError(
        f"rendezvous op with tags {sorted(tags)} between device pair "
        f"{pair} has no matching peer op"
    )


def reused_deposit(tag: str, verb: str) -> GraphCompileError:
    return GraphCompileError(
        f"deposit tag {tag!r} is {verb} more than once; "
        "the static graph cannot order the reuse"
    )


def missing_deposit(tag: str) -> GraphCompileError:
    return GraphCompileError(
        f"eager receive of tag {tag!r} has no matching send"
    )


class _Walk:
    """What one pass over a schedule's lowered programs produces.

    The walk of lowered programs (:func:`~repro.sim.graph_exec._walk_programs`)
    records cost values one op at a time into lists; the walk of a shape
    key (:class:`_TableWalk`) has the same fields as arrays, with the
    cost-table slot of each value instead.  Either way, two schedules of
    one shape yield the same structure: node ids, edge order, replay
    records and receive order all come out identical.
    """

    __slots__ = (
        "node_add", "e_dst", "e_src", "e_w", "recv_durs",
        "records", "first_f", "mem_deltas", "workspace", "mem_counts",
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

    @property
    def num_nodes(self) -> int:
        return len(self.node_add)

    @property
    def num_devices(self) -> int:
        return len(self.records)

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Edge destinations and sources, walk order."""
        return (
            np.asarray(self.e_dst, dtype=np.intp),
            np.asarray(self.e_src, dtype=np.intp),
        )

    def perturb_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Walk-order node device, node-is-communication and
        edge-is-deposit columns (see ``graph_exec._perturb_plan``)."""
        node_dev = np.zeros(self.num_nodes, dtype=np.intp)
        node_is_comm = np.zeros(self.num_nodes, dtype=bool)
        deposit = np.zeros(len(self.e_dst), dtype=bool)
        for dev, records in enumerate(self.records):
            for rec in records:
                code, nid = rec[0], rec[1]
                if code == _REC_COMPUTE:
                    node_dev[nid] = dev
                else:
                    node_is_comm[nid] = True
                    if code == _REC_EAGER:
                        for _snid, widx, _ridx in rec[4]:
                            deposit[widx] = True
        return node_dev, node_is_comm, deposit


class _TableWalk:
    """The walk of an op table: slot arrays, edges and on-demand records.

    ``e_dst``/``e_src`` and ``records`` read as the lists a
    :class:`_Walk` holds; the structure reads the arrays.
    """

    __slots__ = (
        "num_devices", "num_nodes", "dst", "src", "first_f", "mem_counts",
        "s_node", "s_edge", "s_recv", "s_mem", "s_ws",
        "_table", "_nid", "_recv_rows", "_send_nids", "_num_program",
    )

    @property
    def e_dst(self) -> List[int]:
        return self.dst.tolist()

    @property
    def e_src(self) -> List[int]:
        return self.src.tolist()

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.dst, self.src

    @property
    def records(self) -> List[List[tuple]]:
        """Per device, the replay record of every op, as ``_walk_programs``
        writes them; built on each read (``GraphStructure`` keeps them)."""
        table = self._table
        units = table.units
        records: List[List[tuple]] = [[] for _ in range(self.num_devices)]
        recv_lists = {
            row: [(snid, self._num_program + ridx, ridx)]
            for ridx, (row, snid) in enumerate(
                zip(self._recv_rows.tolist(), self._send_nids.tolist())
            )
        }
        rows = zip(
            self._nid.tolist(), table.dev.tolist(), table.kind.tolist(),
            table.unit.tolist(), table.phase.tolist(), table.send.tolist(),
            table.recv.tolist(),
        )
        messages = np.unique(np.concatenate((table.send, table.recv)))
        tag = {m: table.tag(m) for m in messages.tolist() if m >= 0}
        for row, (nid, x, kind, u, phase, send, recv) in enumerate(rows):
            if kind == OP_F or kind == OP_B:
                name = "F" if kind == OP_F else "B"
                records[x].append((
                    _REC_COMPUTE, nid, f"{name}({unit_label(units[u])})",
                    name, PHASES[phase],
                ))
                continue
            parts = []
            if send >= 0:
                parts.append("→" + tag[send])
            if recv >= 0:
                parts.append("←" + tag[recv])
            label = "comm[" + ",".join(parts) + "]"
            if kind == OP_EXCHANGE:
                records[x].append((_REC_RENDEZVOUS, nid, label))
            else:
                records[x].append((
                    _REC_EAGER, nid, label, "wait" + label[4:],
                    recv_lists.get(row, []),
                ))
        return records

    def perturb_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Walk-order node device, node-is-communication and
        edge-is-deposit columns, from the table's columns; the device
        column takes the smallest integer type that holds it."""
        table = self._table
        creates = _makes_node(table)
        node_is_comm = table.kind[creates] > OP_B
        node_dev = np.where(node_is_comm, 0, table.dev[creates]).astype(
            np.min_scalar_type(self.num_devices)
        )
        deposit = np.zeros(len(self.dst), dtype=bool)
        deposit[self._num_program:] = True
        return node_dev, node_is_comm, deposit



def _makes_node(table: OpTable) -> np.ndarray:
    """Rows that make a node: all but a rendezvous's higher end, which
    shares its peer's."""
    return (table.kind != OP_EXCHANGE) | (table.dev <= table.peer)


def _raise_walk_error(table: OpTable) -> None:
    """Raise the error the Op route raises for a table whose
    communication does not match, checking in its order: a reused
    deposit during the walk, then an unmatched rendezvous, then each
    eager receive in walk order."""
    pending: dict = {}
    sent: set = set()
    received: List[str] = []
    rows = zip(
        table.dev.tolist(), table.kind.tolist(), table.peer.tolist(),
        table.send.tolist(), table.recv.tolist(),
    )
    for x, kind, peer, send, recv in rows:
        if kind == OP_EXCHANGE:
            tags = frozenset(table.tag(m) for m in (send, recv) if m >= 0)
            key = ((min(x, peer), max(x, peer)), tags)
            queue = pending.get(key)
            if queue is not None and queue[0] != x:
                queue.popleft()
                if not queue:
                    del pending[key]
            else:
                pending.setdefault(key, deque()).append(x)
        elif kind == OP_SEND:
            tag = table.tag(send)
            if tag in sent:
                raise reused_deposit(tag, "sent")
            sent.add(tag)
        elif kind == OP_RECV:
            received.append(table.tag(recv))
    if pending:
        raise unmatched_rendezvous(*next(iter(pending)))
    consumed: set = set()
    for tag in received:
        if tag not in sent:
            raise missing_deposit(tag)
        if tag in consumed:
            raise reused_deposit(tag, "received")
        consumed.add(tag)
    raise GraphCompileError("op table communication does not match")


def table_walk(table: OpTable) -> Tuple[_TableWalk, List[tuple]]:
    """The walk of an op table and its slot descriptors."""
    n = table.num_devices
    dev, kind, peer = table.dev, table.kind, table.peer
    send, recv = table.send, table.recv
    exchange = kind == OP_EXCHANGE

    creates = _makes_node(table)
    nid = np.cumsum(creates) - 1
    num_nodes = int(nid[-1]) + 1 if len(nid) else 0

    # Rendezvous: the k-th post of a (device pair, tag set) key by the
    # lower device pairs with the k-th op of that key on the higher one.
    rows_x = np.flatnonzero(exchange)
    s_x, r_x = send[rows_x], recv[rows_x]
    if len(rows_x):
        x_dev, x_peer = dev[rows_x], peer[rows_x]
        width = int(max(s_x.max(), r_x.max())) + 2
        pair = np.minimum(x_dev, x_peer) * n + np.maximum(x_dev, x_peer)
        key = (
            (pair * width + np.minimum(s_x, r_x) + 1) * width
            + np.maximum(s_x, r_x) + 1
        )
        lower = x_dev <= x_peer
        posts, takes = rows_x[lower], rows_x[~lower]
        post_keys, take_keys = key[lower], key[~lower]
        by_post = np.argsort(post_keys, kind="stable")
        by_take = np.argsort(take_keys, kind="stable")
        if len(posts) != len(takes) or not np.array_equal(
            post_keys[by_post], take_keys[by_take]
        ):
            _raise_walk_error(table)
        nid[takes[by_take]] = nid[posts[by_post]]

    # Deposits: each eager receive's message is sent exactly once, and
    # received only there.
    send_rows = np.flatnonzero(kind == OP_SEND)
    recv_rows = np.flatnonzero(kind == OP_RECV)
    sent = send[send_rows]
    wanted = recv[recv_rows]
    by_msg = np.argsort(sent, kind="stable")
    sent_sorted = sent[by_msg]
    found = np.minimum(np.searchsorted(sent_sorted, wanted), len(sent) - 1)
    wanted_sorted = np.sort(wanted)
    if (
        np.any(sent_sorted[1:] == sent_sorted[:-1])
        or np.any(wanted_sorted[1:] == wanted_sorted[:-1])
        or len(wanted) and (
            not len(sent) or not np.array_equal(sent_sorted[found], wanted)
        )
    ):
        _raise_walk_error(table)
    sender_rows = send_rows[by_msg[found]]

    # Slots: one code per cost a row reads, in disjoint ranges per
    # descriptor kind.  A pass reads its duration, stash and workspace;
    # an exchange its own direction pair; a send and a receive the wire
    # time of their payload.
    rows_c = np.flatnonzero(kind <= OP_B)
    unit_half = np.array([u[1] != -1 for u in table.units], dtype=bool)
    chunks = int(table.chunk.max()) + 1
    stage = (
        (dev[rows_c] * chunks + table.chunk[rows_c]) * 2
        + unit_half[table.unit[rows_c]]
    ) * 4
    is_f = kind[rows_c] == OP_F
    sent_state = np.where(s_x < 0, 0, 1 + unit_half[table.payload_unit(s_x)])
    recv_state = np.where(r_x < 0, 0, 1 + unit_half[table.payload_unit(r_x)])
    x_base = n * chunks * 8
    d_base = x_base + n * n * 9
    wire_half = unit_half[table.payload_unit(np.concatenate((sent, wanted)))]
    codes = np.concatenate((
        stage + ~is_f, stage + 2, stage + 3,
        x_base + ((dev[rows_x] * n + peer[rows_x]) * 3 + sent_state) * 3
        + recv_state,
        d_base + (np.concatenate((dev[send_rows], peer[recv_rows])) * n
                  + np.concatenate((peer[send_rows], dev[recv_rows]))) * 2
        + wire_half,
    ))
    # Number the codes in use in code order (the code space is small),
    # and decode each into its descriptor.
    used = np.zeros(d_base + n * n * 2, dtype=bool)
    used[codes] = True
    slots = (np.cumsum(used) + 1)[codes]
    distinct = np.flatnonzero(used)
    descs: List[tuple] = [("0",), ("L",)]
    rest, cost = np.divmod(distinct[distinct < x_base], 4)
    rest, half = np.divmod(rest, 2)
    device, chunk = np.divmod(rest, chunks)
    descs += zip(
        _PASS_COSTS[cost].tolist(), device.tolist(), chunk.tolist(),
        (half == 1).tolist(),
    )
    exchanges = distinct[(distinct >= x_base) & (distinct < d_base)]
    rest, r_state = np.divmod(exchanges - x_base, 3)
    rest, s_state = np.divmod(rest, 3)
    device, other = np.divmod(rest, n)
    descs += zip(
        repeat("X"), device.tolist(), other.tolist(),
        [_HALVES[v] for v in s_state.tolist()],
        [_HALVES[v] for v in r_state.tolist()],
    )
    rest, half = np.divmod(distinct[distinct >= d_base] - d_base, 2)
    device, other = np.divmod(rest, n)
    descs += zip(
        repeat("D"), device.tolist(), other.tolist(), (half == 1).tolist()
    )
    c, e = len(rows_c), 3 * len(rows_c) + len(rows_x)
    s_pass, s_stash, s_ws = slots[:c], slots[c:2 * c], slots[2 * c:3 * c]
    s_wire = slots[e:]
    # Each row's own slot weights its node (if it makes one) and its
    # program edge to the device's next row; a receive's is zero.
    row_slot = np.full(len(kind), _ZERO, dtype=np.intp)
    row_slot[rows_c] = s_pass
    row_slot[rows_x] = slots[3 * c:e]
    row_slot[send_rows] = _LATENCY
    wire_of_send = np.empty(len(kind), dtype=np.intp)
    wire_of_send[send_rows] = s_wire[:len(send_rows)]

    # Edges: program order within each device, then one deposit edge per
    # eager receive, in walk order.
    same = dev[1:] == dev[:-1]
    send_nids = nid[sender_rows]
    walk = _TableWalk()
    walk.dst = np.concatenate((nid[1:][same], nid[recv_rows]))
    walk.src = np.concatenate((nid[:-1][same], send_nids))
    walk.s_edge = np.concatenate(
        (row_slot[:-1][same], wire_of_send[sender_rows])
    )
    walk.s_node = row_slot[creates]
    walk.s_recv = s_wire[len(send_rows):]
    # An F allocates its stash, a B frees it.
    s_mem = np.full((c, 2), _ZERO, dtype=np.intp)
    s_mem[is_f, 0] = s_stash[is_f]
    s_mem[~is_f, 1] = s_stash[~is_f]
    walk.s_mem = s_mem.ravel()
    walk.s_ws = s_ws

    # Rows are device-major: a device's first F is where the device
    # column of the F rows changes.
    first_f = [-1] * n
    rows_f = rows_c[is_f]
    dev_f = dev[rows_f]
    starts = np.ones(len(dev_f), dtype=bool)
    starts[1:] = dev_f[1:] != dev_f[:-1]
    for x, node in zip(dev_f[starts].tolist(), nid[rows_f[starts]].tolist()):
        first_f[x] = node
    walk.num_devices = n
    walk.num_nodes = num_nodes
    walk.first_f = first_f
    walk.mem_counts = np.bincount(dev[rows_c], minlength=n).tolist()
    walk._table = table
    walk._nid = nid
    walk._recv_rows = recv_rows
    walk._send_nids = send_nids
    walk._num_program = int(same.sum())
    return walk, descs


def shape_walk(key: tuple) -> Tuple[_TableWalk, List[tuple]]:
    """The table walk of a builder's shape key and its slot descriptors."""
    return table_walk(ORDERS[key[0]](*key[1:]))
