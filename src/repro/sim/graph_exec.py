"""Compiled static-graph executor: the DES fast path.

The event engine (:mod:`repro.sim.engine`) walks one Python op at a time.
That is the right tool the *first* time a schedule runs — it detects
deadlocks and produces a diagnosis — but planner sweeps and experiment
grids execute thousands of structurally-identical schedules that differ
only in their cost vectors.  This module gives arbitrary schedules the
compile-once/evaluate-many treatment the 1F1B simulators already have
(``PipelineSim``'s cached shape, the max-plus kernel's ``(n, K)`` sweep):

* **Lowering.**  The engine's compiled instruction tuples (shared via
  :func:`repro.sim.engine.lower_programs`, so both executors consume the
  exact same precomputed floats) are lowered once more into a static
  dependency DAG: per-device program-order edges, one merged node per
  rendezvous pair, deposit edges from eager senders to their receivers,
  and the sliced-warmup aggregation edges fall out of the same rule.

* **Uniform recurrence.**  Every edge carries the weight ``w`` such that
  the event engine would compute ``value(dst) ≥ value(src) + w`` with one
  IEEE addition — a program edge carries its source op's own duration, a
  deposit edge the wire time.  Node completion is then a longest path:
  ``base[i] = max over edges (base[src] + w)``, ``end[i] = base[i] +
  add[i]``.  Because each candidate costs exactly one addition and
  ``max`` is value-commutative, the fixed point is bit-identical to the
  event loop regardless of evaluation order.

* **Level schedule.**  Nodes are renumbered by dependency level, so
  evaluation is one ``take → add → maximum.reduceat`` numpy pass per
  level — and evaluating K cost vectors over one structure just makes
  every array ``(K, …)``, amortising the structure across a whole sweep
  (the arbitrary-schedule analogue of the max-plus kernel's batch).

* **Shape templates.**  The schedule builders defer their ops behind a
  shape key (:class:`~repro.schedules.base.ScheduleShape`).  The first
  compile of a key builds the key's op table and walks it with array
  operations (:mod:`repro.sim.walks`: no op is built or lowered) and
  caches a template — the costless DAG plus, for
  every node, edge, eager receive, memory delta and workspace value, the
  slot of a per-query cost table that grows with the number of stages
  (descriptors: :mod:`repro.sim.walks`).  Every later query of the key
  computes only that table (:func:`_cost_table`) and gathers it
  (:func:`shape_graph`).  A template keeps neither the op table nor the
  walk: the first read of its replay records or of
  :func:`run_perturbed`'s node classes walks the key again.
  Hand-built or edited schedules are lowered and walked onto a fresh,
  uncached structure each time.

* **Memory accounting.**  Activation stashes are replayed per device as
  an interleaved alloc/release delta array: a sequential ``cumsum`` (the
  same additions as the engine's ``held_bytes`` updates) plus a prefix
  max over ``held + workspace``.

The event engine remains the substrate for deadlock diagnosis (a cyclic
or unmatched DAG raises :class:`GraphCompileError` and
:func:`execute_fast` falls back, surfacing the engine's per-device
``DeadlockError`` report) and for schedules with exotic communication
the compiler rejects (reused deposit tags).  Timeline events are built
lazily from the node arrays only when a caller asks for them; rendezvous
event labels may name the opposite endpoint's op compared to the event
engine (both engines pick one of the two mirror labels), every other
tuple field is identical.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.hardware.cluster import Cluster
from repro.hardware.comm import CommModel
from repro.schedules.base import Schedule
from repro.sim.engine import (
    _COMPUTE,
    _RENDEZVOUS,
    Engine,
    ExecutionResult,
    check_device_map,
    lower_programs,
)
from repro.sim.walks import (
    _REC_COMPUTE,
    _REC_EAGER,
    _REC_RENDEZVOUS,
    GraphCompileError,
    _TableWalk,
    _Walk,
    missing_deposit,
    reused_deposit,
    shape_walk,
    unmatched_rendezvous,
)


def _walk_programs(lowered: List[List[tuple]]) -> _Walk:
    """Lower instruction tuples into DAG nodes, edges and cost arrays.

    The route of hand-built and edited schedules, and the reference that
    the table walks of :mod:`repro.sim.walks` reproduce.
    """
    walk = _Walk(len(lowered))
    node_add = walk.node_add
    e_dst, e_src, e_w = walk.e_dst, walk.e_src, walk.e_w
    recv_durs = walk.recv_durs
    #: unmatched rendezvous posts: key -> deque[(device, node)]
    pending_rzv: Dict[tuple, deque] = {}
    #: eager deposits: tag -> (sender node, wire time)
    send_map: Dict[str, Tuple[int, float]] = {}
    #: eager receives in walk order: (recv node, tag, recv_list to patch)
    recv_reqs: List[Tuple[int, str, list]] = []
    consumed: set = set()

    for dev, program in enumerate(lowered):
        records = walk.records[dev]
        prev = -1
        prev_w = 0.0
        for instr in program:
            code = instr[0]
            if code == _COMPUTE:
                _, label, duration, alloc, free, ws, kind, phase = instr
                nid = len(node_add)
                node_add.append(duration)
                if prev >= 0:
                    e_dst.append(nid)
                    e_src.append(prev)
                    e_w.append(prev_w)
                records.append((_REC_COMPUTE, nid, label, kind, phase))
                walk.mem_deltas.append(alloc)
                walk.mem_deltas.append(-free)
                walk.workspace.append(ws)
                walk.mem_counts[dev] += 1
                if kind == "F" and walk.first_f[dev] < 0:
                    walk.first_f[dev] = nid
                prev, prev_w = nid, duration
            elif code == _RENDEZVOUS:
                _, label, key, _peer, exch = instr
                queue = pending_rzv.get(key)
                if queue is not None and queue[0][0] != dev:
                    _odev, nid = queue.popleft()
                    if not queue:
                        del pending_rzv[key]
                else:
                    nid = len(node_add)
                    node_add.append(exch)
                    pending_rzv.setdefault(key, deque()).append((dev, nid))
                if prev >= 0:
                    e_dst.append(nid)
                    e_src.append(prev)
                    e_w.append(prev_w)
                records.append((_REC_RENDEZVOUS, nid, label))
                prev, prev_w = nid, exch
            else:  # _EAGER
                _, label, recvs, sends, wait_label, latency = instr
                nid = len(node_add)
                node_add.append(latency)
                if prev >= 0:
                    e_dst.append(nid)
                    e_src.append(prev)
                    e_w.append(prev_w)
                recv_list: list = []
                for tag, rdur in recvs:
                    recv_durs.append(rdur)
                    recv_reqs.append((nid, tag, recv_list))
                for tag, sdur in sends:
                    if tag in send_map:
                        raise reused_deposit(tag, "sent")
                    send_map[tag] = (nid, sdur)
                records.append(
                    (_REC_EAGER, nid, label, wait_label, recv_list)
                )
                prev, prev_w = nid, latency

    if pending_rzv:
        raise unmatched_rendezvous(*next(iter(pending_rzv)))
    for ridx, (rnid, tag, recv_list) in enumerate(recv_reqs):
        sender = send_map.get(tag)
        if sender is None:
            raise missing_deposit(tag)
        if tag in consumed:
            raise reused_deposit(tag, "received")
        consumed.add(tag)
        snid, sdur = sender
        widx = len(e_w)
        e_dst.append(rnid)
        e_src.append(snid)
        e_w.append(sdur)
        recv_list.append((snid, widx, ridx))
    return walk


def _cyclic() -> GraphCompileError:
    return GraphCompileError(
        "cyclic dependency graph — this schedule deadlocks; "
        "run the event engine for a per-device diagnosis"
    )


def _kahn_levels(
    num_nodes: int, e_dst: np.ndarray, e_src: np.ndarray
) -> np.ndarray:
    """Longest-path depth of every node.

    A node with one incoming edge sits a fixed distance below the
    nearest ancestor that has none or several (its *anchor*), found for
    all nodes at once by pointer jumping.  Kahn's algorithm then runs in
    Python over the anchors only, each edge into one weighted by its
    source's distance below the source's anchor.  Most schedule nodes
    (passes, sends) have one incoming edge.
    """
    indeg = np.bincount(e_dst, minlength=num_nodes)
    single = indeg == 1
    into_single = single[e_dst]
    anchor = np.arange(num_nodes)
    anchor[e_dst[into_single]] = e_src[into_single]
    below = single.astype(np.intp)
    for _ in range(num_nodes.bit_length() + 1):
        if not single[anchor].any():
            break
        below += below[anchor]
        anchor = anchor[anchor]
    else:  # a cycle of single-parent nodes has no anchor
        raise _cyclic()
    # Anchors are numbered 0..num_anchors-1 in node order; the loop and
    # its lists see only them.
    is_anchor = ~single
    index = np.cumsum(is_anchor) - 1
    num_anchors = int(index[-1]) + 1 if num_nodes else 0
    join_src = e_src[~into_single]
    from_anchor = index[anchor[join_src]]
    by_anchor = np.argsort(from_anchor, kind="stable")
    out = index[e_dst[~into_single]][by_anchor].tolist()
    weight = (below[join_src] + 1)[by_anchor].tolist()
    bounds = np.zeros(num_anchors + 1, dtype=np.intp)
    np.cumsum(np.bincount(from_anchor, minlength=num_anchors), out=bounds[1:])
    bounds = bounds.tolist()
    anchor_indeg = indeg[is_anchor]
    waiting = anchor_indeg.tolist()
    level = [0] * num_anchors
    ready = np.flatnonzero(anchor_indeg == 0).tolist()
    # ``ready`` grows while it is iterated: a plain FIFO.
    for u in ready:
        base = level[u]
        for k in range(bounds[u], bounds[u + 1]):
            v = out[k]
            depth = base + weight[k]
            if level[v] < depth:
                level[v] = depth
            waiting[v] -= 1
            if not waiting[v]:
                ready.append(v)
    if len(ready) != num_anchors:
        raise _cyclic()
    return np.array(level, dtype=np.intp)[index[anchor]] + below


def _walk_order(values: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The walk-order array whose ``perm`` gather is ``values``."""
    out = np.empty_like(values)
    out[perm] = values
    return out


class GraphStructure:
    """The costless compiled DAG: levels, edge order and replay records.

    Replay records and :func:`run_perturbed`'s node and edge classes are
    read from the walk on first use (timelines, traces and tests read the
    records; a plain run reads neither).  A structure built with its shape
    ``key`` (a template's) keeps neither the walk nor its op table: it
    walks the key again then.
    """

    __slots__ = (
        "num_devices", "num_nodes", "num_edges", "levels", "src_lvl",
        "edge_perm", "node_order", "first_f", "mem_offsets",
        "perturb_plan", "_source", "_records",
    )

    def __init__(
        self, walk: Union[_Walk, _TableWalk], key: Optional[tuple] = None
    ) -> None:
        num_nodes = walk.num_nodes
        e_dst, e_src = walk.edge_arrays()
        num_edges = len(e_dst)

        level_arr = _kahn_levels(num_nodes, e_dst, e_src)

        # Renumber nodes by (level, walk order): arrays become level-major.
        node_order = np.argsort(level_arr, kind="stable")
        new_of_old = np.empty(num_nodes, dtype=np.intp)
        new_of_old[node_order] = np.arange(num_nodes, dtype=np.intp)

        levels: List[tuple] = []
        if num_edges:
            dst_new = new_of_old[e_dst]
            src_new = new_of_old[e_src]
            edge_perm = np.argsort(dst_new, kind="stable")
            dst_sorted = dst_new[edge_perm]
            src_sorted = src_new[edge_perm]
            num_levels = int(level_arr.max()) + 1
            counts = np.bincount(level_arr, minlength=num_levels)
            starts = np.concatenate(([0], np.cumsum(counts)))
            # Every destination node sits above level 0 (an incoming edge
            # forces a positive longest-path depth) and, conversely, Kahn
            # leaves a node at level 0 unless an edge raised it — so the
            # nodes from ``starts[1]`` on each own exactly one contiguous
            # group of ``dst_sorted``.  One global group-start scan then
            # replaces the old per-level searchsorted/diff passes.
            base = int(starts[1])
            group_starts = np.concatenate(
                ([0], np.flatnonzero(np.diff(dst_sorted)) + 1)
            ).astype(np.intp)
            if len(group_starts) != num_nodes - base or not np.array_equal(
                dst_sorted[group_starts],
                np.arange(base, num_nodes, dtype=np.intp),
            ):
                raise GraphCompileError(
                    "node above level 0 without incoming edges"
                )
            # Level ``l`` owns nodes ``starts[l]:starts[l + 1]``, groups
            # ``g0:g1`` and edges ``e0:e1``; its reduceat offsets are its
            # group starts relative to ``e0``.  Each level keeps views.
            g0 = starts[1:-1] - base
            g1 = starts[2:] - base
            group_ends = np.append(group_starts, num_edges)
            e0 = group_ends[g0]
            offsets = group_starts - np.repeat(e0, g1 - g0)
            for lo, hi, a, b, x0, x1 in zip(
                starts[1:-1].tolist(), starts[2:].tolist(), g0.tolist(),
                g1.tolist(), e0.tolist(), group_ends[g1].tolist(),
            ):
                levels.append(
                    (lo, hi, x0, x1, src_sorted[x0:x1], offsets[a:b])
                )
        else:
            edge_perm = src_sorted = np.empty(0, dtype=np.intp)

        self.num_devices = walk.num_devices
        self.num_nodes = num_nodes
        self.num_edges = num_edges
        self.levels = levels
        #: every level-major edge's source; the levels' ``src`` views
        #: tile it in order.
        self.src_lvl = src_sorted
        self.edge_perm = edge_perm
        self.node_order = node_order
        self.first_f = [
            int(new_of_old[f]) if f >= 0 else -1 for f in walk.first_f
        ]
        self.mem_offsets = np.concatenate(
            ([0], np.cumsum(np.asarray(walk.mem_counts, dtype=np.intp)))
        )
        #: node/edge classification for ``run_perturbed``, level-major,
        #: built on first use (:func:`_perturb_plan`).
        self.perturb_plan: Optional[tuple] = None
        #: the walk, or the shape key to walk again (see :meth:`_walk`).
        self._source: Union[_Walk, _TableWalk, tuple] = (
            walk if key is None else key
        )
        self._records: Optional[tuple] = None

    def _walk(self) -> Union[_Walk, _TableWalk]:
        """The walk the records and perturbation classes are read from."""
        source = self._source
        return shape_walk(source)[0] if isinstance(source, tuple) else source

    @property
    def records(self) -> tuple:
        """Per device, one replay record per op; records keep walk-order
        node ids (see ``node_order``)."""
        records = self._records
        if records is None:
            records = self._records = tuple(map(tuple, self._walk().records))
        return records


class CompiledGraph:
    """One schedule lowered onto a (possibly shared) graph structure."""

    __slots__ = (
        "structure", "schedule_name", "num_devices", "static_bytes",
        "capacity", "recv_durs", "node_add_lvl",
        "edge_w_lvl", "mem_deltas", "workspace", "_peaks",
    )

    def __init__(
        self,
        structure: GraphStructure,
        schedule_name: str,
        static_bytes: Sequence[float],
        capacity: float,
        *,
        node_add_lvl: np.ndarray,
        edge_w_lvl: np.ndarray,
        recv_durs: np.ndarray,
        mem_deltas: np.ndarray,
        workspace: np.ndarray,
    ) -> None:
        self.structure = structure
        self.schedule_name = schedule_name
        self.num_devices = structure.num_devices
        self.static_bytes = list(static_bytes)
        self.capacity = capacity
        self.node_add_lvl = node_add_lvl
        self.edge_w_lvl = edge_w_lvl
        self.recv_durs = recv_durs
        self.mem_deltas = mem_deltas
        self.workspace = workspace
        self._peaks: Optional[Tuple[float, ...]] = None

    @classmethod
    def from_walk(
        cls,
        structure: GraphStructure,
        walk: _Walk,
        schedule_name: str,
        static_bytes: Sequence[float],
        capacity: float,
    ) -> "CompiledGraph":
        """The graph of a walk's own cost values."""
        return cls(
            structure, schedule_name, static_bytes, capacity,
            node_add_lvl=np.asarray(walk.node_add, dtype=np.float64)[
                structure.node_order
            ],
            edge_w_lvl=np.asarray(walk.e_w, dtype=np.float64)[
                structure.edge_perm
            ],
            recv_durs=np.asarray(walk.recv_durs, dtype=np.float64),
            mem_deltas=np.asarray(walk.mem_deltas, dtype=np.float64),
            workspace=np.asarray(walk.workspace, dtype=np.float64),
        )

    @property
    def edge_w_walk(self) -> np.ndarray:
        """Edge weights in walk order; only replays read them."""
        return _walk_order(self.edge_w_lvl, self.structure.edge_perm)

    # -- evaluation --------------------------------------------------------

    def _relax(self) -> np.ndarray:
        """Longest-path node start times (level-major numbering)."""
        base = np.zeros(self.structure.num_nodes)
        edge_w = self.edge_w_lvl
        for lo, hi, e0, e1, src, off in self.structure.levels:
            cand = base[src]
            cand += edge_w[e0:e1]
            base[lo:hi] = np.maximum.reduceat(cand, off)
        return base

    def _device_peaks(self) -> List[float]:
        """Peak bytes per device: alloc/release cumsum + prefix max.

        The memory replay is a pure function of compile-time walk data
        (deltas, workspace, static bytes) — it never depends on the
        relaxed times — so it runs once per graph and is memoised for
        every later ``run()`` / :func:`run_batch` evaluation; the per-K
        Python replay loop was the dominant per-call setup cost of
        small-``K`` batches.
        """
        cached = self._peaks
        if cached is not None:
            return list(cached)
        offsets = self.structure.mem_offsets
        peaks = []
        for dev in range(self.num_devices):
            c0, c1 = int(offsets[dev]), int(offsets[dev + 1])
            if c1 == c0:
                peak = 0.0
            else:
                held = np.cumsum(self.mem_deltas[2 * c0:2 * c1])[0::2]
                held += self.workspace[c0:c1]
                peak = max(0.0, float(held.max()))
            peaks.append(self.static_bytes[dev] + peak)
        self._peaks = tuple(peaks)
        return peaks

    def run(self) -> ExecutionResult:
        """Evaluate once; bit-identical to ``Engine(schedule, …).run()``."""
        base = self._relax()
        end = base + self.node_add_lvl
        return self._result(base, end)

    def _result(self, base: np.ndarray, end: np.ndarray) -> ExecutionResult:
        iteration_time = float(end.max()) if self.structure.num_nodes else 0.0
        peaks = self._device_peaks()
        ooms = [
            d for d in range(self.num_devices) if peaks[d] > self.capacity
        ]
        first_forward = [
            float(base[f]) if f >= 0 else float("inf")
            for f in self.structure.first_f
        ]
        return ExecutionResult(
            schedule_name=self.schedule_name,
            iteration_time=iteration_time,
            peak_memory=peaks,
            oom_devices=ooms,
            num_devices=self.num_devices,
            raw_events_factory=lambda: self._build_events(base, end),
            first_forward_starts=first_forward,
        )

    # -- lazy timeline -----------------------------------------------------

    def _build_events(self, base: np.ndarray, end: np.ndarray) -> List[tuple]:
        """Replay the per-device programs into raw event tuples.

        Events come out grouped by device in program order (the event
        engine interleaves devices); per-device order — the only order
        metrics depend on — is identical.
        """
        events: List[tuple] = []
        edge_w = self.edge_w_walk
        recv_durs = self.recv_durs
        # Records name walk-order nodes.
        order = self.structure.node_order
        base = _walk_order(base, order)
        end = _walk_order(end, order)
        for dev, records in enumerate(self.structure.records):
            prev_end = 0.0
            for rec in records:
                code, nid = rec[0], rec[1]
                if code == _REC_COMPUTE:
                    start = float(base[nid])
                    stop = float(end[nid])
                    events.append((dev, rec[3], rec[2], start, stop, rec[4]))
                elif code == _REC_RENDEZVOUS:
                    events.append(
                        (dev, "comm", rec[2], float(base[nid]),
                         float(end[nid]), "")
                    )
                    stop = float(end[nid])
                else:
                    start = prev_end
                    clock = float(base[nid])
                    stop = float(end[nid])
                    comm_begin = start
                    recv_list = rec[4]
                    if recv_list and clock > start:
                        comm_begin = max(start, min(
                            float(base[s] + edge_w[w]) - float(recv_durs[r])
                            for s, w, r in recv_list
                        ))
                        if comm_begin > start:
                            events.append(
                                (dev, "idle", rec[3], start, comm_begin, "")
                            )
                    events.append((dev, "comm", rec[2], comm_begin, stop, ""))
                prev_end = stop
        return events


# -- shape templates -------------------------------------------------------

#: shape templates kept process-wide (least recently used beyond this).
_TEMPLATE_CACHE_SIZE = 256

#: representative units for :class:`_StageCosts`-style full/half lookups.
_FULL_UNIT = (0, -1)
_HALF_UNIT = (0, 0)


def _payload(boundary_bytes: float, halves: Tuple[bool, ...]) -> float:
    """Bytes of one direction of an exchange, summed as the lowerer sums."""
    return sum(boundary_bytes * (0.5 if h else 1.0) for h in halves)


def _cost_table(
    descs: Sequence[tuple],
    stage_costs: Sequence[Sequence[object]],
    boundary_bytes: float,
    cluster: Cluster,
    device_map: Sequence[int],
    comm: CommModel,
) -> np.ndarray:
    """Every descriptor's value for one query, with the lowerer's arithmetic
    (descriptors: :mod:`repro.sim.walks`).

    Raises the ``ValueError`` a :class:`~repro.schedules.base.ComputeOp`
    or :class:`~repro.schedules.base.Transfer` would for a negative
    duration or payload, since no op is built to raise it.
    """
    if boundary_bytes < 0:
        raise ValueError("negative transfer size")

    def wire(src: int, dst: int, num_bytes: float) -> float:
        if num_bytes <= 0:
            return 0.0
        return comm.p2p_time_between(
            cluster, device_map[src], device_map[dst], num_bytes
        )

    values: List[float] = []
    append = values.append
    for desc in descs:
        code = desc[0]
        if code == "X":
            _, dev, peer, sent, received = desc
            append(max(
                wire(dev, peer, _payload(boundary_bytes, sent)),
                wire(peer, dev, _payload(boundary_bytes, received)),
            ))
        elif code == "D":
            append(wire(
                desc[1], desc[2], boundary_bytes * (0.5 if desc[3] else 1.0)
            ))
        elif code == "0":
            append(0.0)
        elif code == "L":
            append(cluster.hw.link_latency)
        else:
            cost = stage_costs[desc[1]][desc[2]]
            unit = _HALF_UNIT if desc[3] else _FULL_UNIT
            if code == "F":
                value = cost.fwd(unit)
            elif code == "B":
                value = cost.bwd(unit)
            elif code == "S":
                value = cost.stash(unit)
            else:
                value = cost.workspace(unit)
            if value < 0 and (code == "F" or code == "B"):
                raise ValueError("negative duration")
            append(value)
    return np.array(values, dtype=np.float64)


class _Template:
    """A cached schedule shape: its structure plus integer slot arrays.

    The slot arrays say which entry of the cost table over ``descs``
    every node, edge, eager receive, memory delta and workspace value
    takes, so a query of this shape is one :func:`_cost_table` and a
    handful of gathers.  No Op objects, lowered tuples, signatures, op
    table or walk are kept: the structure walks the key again for replay
    records and perturbation classes.
    """

    __slots__ = (
        "structure", "descs", "s_node_lvl", "s_edge_lvl",
        "s_recv", "s_mem", "s_ws",
    )

    def __init__(self, key: tuple) -> None:
        walk, descs = shape_walk(key)
        structure = self.structure = GraphStructure(walk, key)
        self.descs = descs
        self.s_node_lvl = walk.s_node[structure.node_order]
        self.s_edge_lvl = walk.s_edge[structure.edge_perm]
        self.s_mem = walk.s_mem
        # Copies: these two are views of the walk's array of every slot,
        # which a view would keep alive.
        self.s_recv = walk.s_recv.copy()
        self.s_ws = walk.s_ws.copy()

    def graph(
        self,
        table: np.ndarray,
        schedule_name: str,
        static_bytes: Sequence[float],
        capacity: float,
    ) -> CompiledGraph:
        mem = table[self.s_mem]
        # Odd entries are releases, which the walk stores negated.
        np.negative(mem[1::2], out=mem[1::2])
        return CompiledGraph(
            self.structure, schedule_name, static_bytes, capacity,
            node_add_lvl=table[self.s_node_lvl],
            edge_w_lvl=table[self.s_edge_lvl],
            recv_durs=table[self.s_recv],
            mem_deltas=mem,
            workspace=table[self.s_ws],
        )


#: templates by shape key, least recently used first.
_templates: "OrderedDict[tuple, _Template]" = OrderedDict()


def shape_graph(
    key: tuple,
    stage_costs: Sequence[Sequence[object]],
    boundary_bytes: float,
    cluster: Cluster,
    device_map: Sequence[int],
    schedule_name: str,
    static_bytes: Sequence[float],
    *,
    comm: Optional[CommModel] = None,
) -> CompiledGraph:
    """The compiled graph of one query of a keyed schedule shape.

    On a template hit only the cost table is computed and gathered.  On a
    miss the family's op table is walked with array operations
    (:func:`repro.sim.walks.shape_walk`), and the template is filed
    under ``key``, evicting the least recently used one beyond
    ``_TEMPLATE_CACHE_SIZE``.
    """
    if comm is None:
        comm = CommModel(cluster.hw)
    template = _templates.get(key)
    if template is None:
        template = _templates[key] = _Template(key)
        if len(_templates) > _TEMPLATE_CACHE_SIZE:
            _templates.popitem(last=False)
    else:
        _templates.move_to_end(key)
    table = _cost_table(
        template.descs, stage_costs, boundary_bytes, cluster, device_map,
        comm,
    )
    return template.graph(
        table, schedule_name, static_bytes, cluster.hw.gpu_memory
    )


def template_cache_info() -> Tuple[int, int]:
    """(templates cached, total nodes across them) — for tests/benches."""
    return len(_templates), sum(
        t.structure.num_nodes for t in _templates.values()
    )


def clear_templates() -> None:
    """Drop every cached template (cold-compile benchmarks)."""
    _templates.clear()


def compile_graph(
    schedule: Schedule,
    cluster: Cluster,
    *,
    device_map: Optional[List[int]] = None,
) -> CompiledGraph:
    """Compile the static graph for one schedule.

    A deferred schedule whose programs are still as emitted compiles
    through its shape template (:func:`shape_graph`): no Op is built or
    lowered, and only a miss walks, straight from the shape key.  Any
    other schedule is lowered and walked onto a fresh, uncached
    structure.  Nothing is cached on the schedule object, so a schedule
    edited after one compile compiles as edited on the next.
    """
    device_map = check_device_map(schedule.num_devices, cluster, device_map)
    shape = schedule.template_shape()
    if shape is None:
        lowered = lower_programs(schedule, cluster, device_map)
        walk = _walk_programs(lowered)
        return CompiledGraph.from_walk(
            GraphStructure(walk), walk, schedule.name,
            schedule.static_bytes, cluster.hw.gpu_memory,
        )
    return shape_graph(
        shape.key, shape.stage_costs, shape.boundary_bytes, cluster,
        device_map, schedule.name, schedule.static_bytes,
    )


def execute_fast(
    schedule: Schedule,
    cluster: Cluster,
    *,
    device_map: Optional[List[int]] = None,
) -> ExecutionResult:
    """Execute via the compiled graph, event engine as the fallback.

    Schedules the compiler rejects (cycles — i.e. deadlocks —, unmatched
    or reused communication) run on the event engine instead, which
    raises :class:`~repro.sim.engine.DeadlockError` with a per-device
    diagnosis for the genuine deadlocks and executes the rest.
    """
    try:
        graph = compile_graph(schedule, cluster, device_map=device_map)
    except GraphCompileError:
        return Engine(schedule, cluster, device_map=device_map).run()
    return graph.run()


def run_batch(graphs: Sequence[CompiledGraph]) -> List[ExecutionResult]:
    """Evaluate K compiled graphs sharing one structure in a single pass.

    All graphs must share the same :class:`GraphStructure` object (every
    graph of one shape template does).  The level relaxation, final ends and memory replay run
    on ``(K, …)`` arrays, amortising the per-level numpy overhead across
    the whole batch — row ``k`` is bit-identical to ``graphs[k].run()``.
    """
    if not graphs:
        return []
    structure = graphs[0].structure
    for g in graphs[1:]:
        if g.structure is not structure:
            raise ValueError(
                "run_batch needs graphs sharing one structure; "
                "group by CompiledGraph.structure first (execute_batch "
                "does this automatically)"
            )
    if len(graphs) == 1:
        return [graphs[0].run()]
    k = len(graphs)
    # Candidate-minor (nodes, K) layout: level gathers become contiguous
    # row gathers and the segment max runs down axis 0, which measures
    # ~15% faster than the (K, nodes) form at small K.  Bitwise safe:
    # each segment reduces the same operand set with np.maximum (exact
    # selection — all values are non-negative, so no -0.0/+0.0 ambiguity)
    # and the adds pair the same elements.
    edge_w = np.stack([g.edge_w_lvl for g in graphs], axis=1)
    node_add = np.stack([g.node_add_lvl for g in graphs], axis=1)
    base = np.zeros((structure.num_nodes, k))
    for lo, hi, e0, e1, src, off in structure.levels:
        cand = base[src]
        cand += edge_w[e0:e1]
        base[lo:hi] = np.maximum.reduceat(cand, off, axis=0)
    end = base + node_add
    base_rows = np.ascontiguousarray(base.T)
    end_rows = np.ascontiguousarray(end.T)
    return [
        g._result(base_rows[i], end_rows[i]) for i, g in enumerate(graphs)
    ]


def _perturb_plan(structure: GraphStructure) -> tuple:
    """Node/edge classification for :func:`run_perturbed`, cached per structure.

    Classifies every node as *compute on device d* or *communication*
    (rendezvous exchanges and eager wire/latency nodes), and every
    level-major edge as a *deposit* edge (its weight is a wire transfer)
    or a *program* edge (its weight is the source node's duration, so it
    scales with the source node's factor).  A table walk reads this from
    its op table's columns; an Op-route walk from its replay records.
    """
    plan = structure.perturb_plan
    if plan is None:
        node_dev, node_is_comm, deposit = structure._walk().perturb_columns()
        order = structure.node_order
        plan = structure.perturb_plan = (
            node_dev[order], node_is_comm[order],
            deposit[structure.edge_perm],
        )
    return plan


def run_perturbed(
    graph: CompiledGraph,
    compute_factors: "np.ndarray",
    comm_factors: "np.ndarray",
) -> "np.ndarray":
    """Iteration times of ``K`` multiplicatively perturbed runs of a graph.

    ``compute_factors`` is ``(K, num_devices)`` — per-draw multipliers on
    every compute duration executed by each device (``(K,)`` broadcasts
    one uniform compute factor per draw) — and ``comm_factors`` is
    ``(K,)``, multiplying every communication cost (rendezvous
    exchanges, eager wire transfers and latencies).  All ``K`` perturbed
    evaluations run in one ``run_batch``-style level relaxation over the
    shared structure, so a robustness profile of a DES schedule costs
    about one batched pass.  A row of all-ones factors is bit-identical
    to ``graph.run().iteration_time`` (``x * 1.0 == x`` bitwise), which
    tests/robustness/test_perturbation.py pins.
    """
    compute_factors = np.asarray(compute_factors, dtype=np.float64)
    comm_factors = np.ascontiguousarray(comm_factors, dtype=np.float64)
    if comm_factors.ndim != 1:
        raise ValueError(
            f"comm_factors must be a (K,) vector, got shape "
            f"{comm_factors.shape}"
        )
    k = comm_factors.shape[0]
    if compute_factors.ndim == 1:
        compute_factors = np.broadcast_to(
            compute_factors[:, None], (compute_factors.shape[0], graph.num_devices)
        )
    if compute_factors.shape != (k, graph.num_devices):
        raise ValueError(
            f"compute_factors must have shape ({k}, {graph.num_devices}), "
            f"got {compute_factors.shape}"
        )
    for arr in (compute_factors, comm_factors):
        if not np.all(np.isfinite(arr)) or arr.min(initial=1.0) <= 0:
            raise ValueError("perturbation factors must be finite and > 0")
    structure = graph.structure
    if structure.num_nodes == 0:
        return np.zeros(k)
    node_dev, node_is_comm, edge_dep = _perturb_plan(structure)
    node_factor = np.where(
        node_is_comm[None, :],
        comm_factors[:, None],
        compute_factors[:, node_dev],
    )
    node_add = graph.node_add_lvl[None, :] * node_factor
    if structure.num_edges:
        edge_factor = np.where(
            edge_dep[None, :], comm_factors[:, None],
            node_factor[:, structure.src_lvl],
        )
        edge_w = graph.edge_w_lvl[None, :] * edge_factor
    else:
        edge_w = np.zeros((k, 0))
    base = np.zeros((k, structure.num_nodes))
    for lo, hi, e0, e1, src, off in structure.levels:
        cand = base[:, src]
        cand += edge_w[:, e0:e1]
        base[:, lo:hi] = np.maximum.reduceat(cand, off, axis=1)
    end = base + node_add
    return end.max(axis=1)


def execute_batch(
    schedules: Sequence[Schedule],
    cluster: Cluster,
    *,
    device_map: Optional[List[int]] = None,
) -> List[ExecutionResult]:
    """Execute many schedules, batching the ones that share a structure.

    The sweep entry point: cells that differ only in cost vectors (same
    depth / micro-batch count / schedule family, different model sizes or
    partitions) compile onto one cached structure and are evaluated as a
    single batched relaxation.  Schedules the compiler rejects fall back
    to the event engine individually.  Results come back in input order.
    """
    results: List[Optional[ExecutionResult]] = [None] * len(schedules)
    groups: Dict[int, List[Tuple[int, CompiledGraph]]] = {}
    for i, schedule in enumerate(schedules):
        try:
            graph = compile_graph(schedule, cluster, device_map=device_map)
        except GraphCompileError:
            results[i] = Engine(
                schedule, cluster, device_map=device_map
            ).run()
            continue
        groups.setdefault(id(graph.structure), []).append((i, graph))
    for members in groups.values():
        evaluated = run_batch([g for _, g in members])
        for (i, _g), result in zip(members, evaluated):
            results[i] = result
    return results  # type: ignore[return-value]
