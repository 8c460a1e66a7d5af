"""Batched slice-count evaluation: the autotuner's DES fast path.

The joint autotuner (:func:`repro.core.strategy.autotune_config`)
executes every admissible Slicer count of a layout on the DES.  Built
the ordinary way, each count is a :class:`~repro.schedules.base.Schedule`
of frozen-dataclass ops, an instruction-tuple lowering pass
(:func:`~repro.sim.engine.lower_programs`) and a tuple walk
(:func:`~repro.sim.graph_exec._walk_programs`) — all to feed a numpy
relaxation that itself takes a fraction of a millisecond.

Slice counts compile through the same process-wide shape templates as
built schedules (:func:`~repro.sim.graph_exec.shape_graph`), under the
key :func:`~repro.schedules.sliced.build_sliced` gives the same
schedule, so a template either path records serves the other.  On a hit
no walk runs at all; only the cost table is gathered.  Slice counts are
nearly all first of their shape, though, so the miss matters too, and
here :func:`family_walk` replaces build → lower → walk: it emits the
:class:`~repro.sim.graph_exec._Walk` structure and cost slots *directly*
from ``(depth, m, num_sliced, aggregate)`` — node ids, edge order, replay
records, memory counts and recv slots come out identical to the
reference walk of the built schedule, because the emitter mirrors
:func:`~repro.schedules.one_f_one_b.build_unit_1f1b`'s program loop and
inlines what the lowering and the walk would produce for each op.  The
walk carries no cost values: the template gathers them from the cost
table, with the lowerer's arithmetic.  Rendezvous node sharing follows
the walk's device order: the lower-indexed endpoint of every
adjacent-pair exchange creates the node and the higher one links to it.

:func:`evaluate_slice_counts` then groups the candidates by structure
and relaxes each group in one :func:`~repro.sim.graph_exec.run_batch`
pass.  Different slice counts necessarily compile to *different*
structures (each sliced micro-batch adds a schedule unit), so the
fan-in only merges within a slice count — the winning margin of the
batched path comes from skipping the op-object/tuple churn, not from
the merged relaxation; see ``docs/search.md``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.partition import PartitionScheme
from repro.core.slicer import SlicePlan
from repro.hardware.cluster import Cluster
from repro.hardware.comm import CommModel
from repro.profiling.modelconfig import ModelProfile
from repro.schedules.base import Unit, check_micro_batches, unit_label
from repro.schedules.one_f_one_b import _StageCosts
from repro.sim.engine import ExecutionResult
from repro.sim.graph_exec import (
    _LATENCY,
    _REC_COMPUTE,
    _REC_EAGER,
    _REC_RENDEZVOUS,
    _ZERO,
    _SlotTable,
    _Walk,
    CompiledGraph,
    GraphCompileError,
    run_batch,
    shape_graph,
)


def family_walk(
    num_stages: int,
    num_micro_batches: int,
    num_sliced: int,
    aggregate: bool = True,
) -> Tuple[_Walk, List[tuple]]:
    """Emit the compiled-DAG walk of one (1F1B x slice-count) shape.

    Returns ``(walk, descs)``: the walk's structure and cost slots equal
    ``_walk_programs(lowered, slots)`` over the lowered
    ``build_schedule(...)`` programs of any model of this shape, and
    ``descs`` describes the slots (see
    :class:`~repro.sim.graph_exec._SlotTable`).  The walk records no
    cost values; a template gathers them from the cost table.
    """
    n = num_stages
    units = SlicePlan(num_sliced, num_micro_batches).units()
    U = len(units)
    slot = _SlotTable()
    walk = _Walk(n)
    s_node, s_edge = walk.s_node, walk.s_edge
    e_dst, e_src = walk.e_dst, walk.e_src
    #: rendezvous nodes posted by the lower endpoint of a pair, keyed by
    #: (lower_device, sorted tag tuple); the upper endpoint links to it.
    posts: Dict[tuple, int] = {}
    #: eager deposits: tag -> (sender node, wire slot), walk order.
    send_map: Dict[str, Tuple[int, int]] = {}
    recv_reqs: List[Tuple[int, str, list]] = []
    halves = sorted({u[1] for u in units})

    def act_tag(unit: Unit, x: int) -> str:
        return f"act:{unit_label(unit)}:{x}>{x + 1}"

    def grad_tag(unit: Unit, x: int) -> str:
        return f"grad:{unit_label(unit)}:{x}>{x - 1}"

    def eager_act(unit: Unit) -> bool:
        return aggregate and unit[1] != -1

    for x in range(n):
        records = walk.records[x]
        prev = -1
        prev_s = _ZERO
        #: this stage's (duration F, duration B, stash, workspace) slots
        #: per unit half (-1 whole, 0/1 sliced).
        stage = {
            h: tuple(slot((c, x, 0, h != -1)) for c in "FBSW")
            for h in halves
        }
        #: exchange slots by (peer, sent unit half, received unit half).
        exchanges: Dict[tuple, int] = {}

        def compute(kind: str, unit: Unit, phase: str) -> None:
            nonlocal prev, prev_s
            s_f, s_b, s_stash, s_ws = stage[unit[1]]
            nid = len(s_node)
            s_dur = s_f if kind == "F" else s_b
            s_node.append(s_dur)
            if prev >= 0:
                e_dst.append(nid)
                e_src.append(prev)
                s_edge.append(prev_s)
            prev, prev_s = nid, s_dur
            label = f"{kind}({unit_label(unit)})"
            records.append((_REC_COMPUTE, nid, label, kind, phase))
            if kind == "F":
                walk.s_mem += (s_stash, _ZERO)
                if walk.first_f[x] < 0:
                    walk.first_f[x] = nid
            else:
                walk.s_mem += (_ZERO, s_stash)
            walk.s_ws.append(s_ws)
            walk.mem_counts[x] += 1

        def rendezvous(
            peer: int,
            sent: Optional[Tuple[str, Unit]],
            received: Optional[Tuple[str, Unit]],
        ) -> None:
            """One synchronous exchange of at most one (tag, unit) payload
            per direction; a fused one lists the send first, as
            ``emit_exchange`` orders its transfers."""
            nonlocal prev, prev_s
            key = (peer, sent and sent[1][1], received and received[1][1])
            s_exch = exchanges.get(key)
            if s_exch is None:
                s_exch = exchanges[key] = slot((
                    "X", x, peer,
                    () if sent is None else (sent[1][1] != -1,),
                    () if received is None else (received[1][1] != -1,),
                ))
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
            lower = min(x, peer)
            if lower == x:
                nid = len(s_node)
                s_node.append(s_exch)
                posts[lower, tags] = nid
            else:
                nid = posts.pop((lower, tags))
            if prev >= 0:
                e_dst.append(nid)
                e_src.append(prev)
                s_edge.append(prev_s)
            prev, prev_s = nid, s_exch
            records.append((_REC_RENDEZVOUS, nid, label))

        def eager(send: bool, tag: str, unit: Unit) -> None:
            """One buffered activation CommOp (send or recv side)."""
            nonlocal prev, prev_s
            src = x if send else x - 1
            s_wire = slot(("D", src, src + 1, unit[1] != -1))
            s_latency = _LATENCY if send else _ZERO
            nid = len(s_node)
            s_node.append(s_latency)
            if prev >= 0:
                e_dst.append(nid)
                e_src.append(prev)
                s_edge.append(prev_s)
            prev, prev_s = nid, s_latency
            label = ("comm[→" if send else "comm[←") + tag + "]"
            recv_list: list = []
            if send:
                send_map[tag] = (nid, s_wire)
            else:
                walk.s_recv.append(s_wire)
                recv_reqs.append((nid, tag, recv_list))
            records.append(
                (_REC_EAGER, nid, label, "wait" + label[4:], recv_list)
            )

        def recv_act(u: Unit) -> None:
            t = act_tag(u, x - 1)
            if eager_act(u):
                eager(False, t, u)
            else:
                rendezvous(x - 1, None, (t, u))

        # -- the 1F1B program, mirroring build_unit_1f1b -----------------
        w = min(U, n - 1 - x)
        s = U - w
        for k in range(w):
            u = units[k]
            if x > 0:
                recv_act(u)
            compute("F", u, "warmup")
            if x < n - 1:
                t = act_tag(u, x)
                if eager_act(u):
                    eager(True, t, u)
                else:
                    rendezvous(x + 1, (t, u), None)
        if s > 0 and x > 0:
            recv_act(units[w])
        for j in range(s):
            fu = units[w + j]
            bu = units[j]
            compute("F", fu, "steady")
            if x < n - 1:
                at = act_tag(fu, x)
                gt = grad_tag(bu, x + 1)
                if eager_act(fu):
                    # Split: the eager act send, then the grad recv as
                    # its own rendezvous (transfer order preserved).
                    eager(True, at, fu)
                    rendezvous(x + 1, None, (gt, bu))
                else:
                    rendezvous(x + 1, (at, fu), (gt, bu))
            compute("B", bu, "steady")
            if x > 0:
                gt = grad_tag(bu, x)
                if j < s - 1:
                    nxt = units[w + j + 1]
                    at = act_tag(nxt, x - 1)
                    if eager_act(nxt):
                        rendezvous(x - 1, (gt, bu), None)
                        eager(False, at, nxt)
                    else:
                        rendezvous(x - 1, (gt, bu), (at, nxt))
                else:
                    rendezvous(x - 1, (gt, bu), None)
        for k in range(s, U):
            u = units[k]
            if x < n - 1:
                rendezvous(x + 1, None, (grad_tag(u, x + 1), u))
            compute("B", u, "cooldown")
            if x > 0:
                rendezvous(x - 1, (grad_tag(u, x), u), None)

    if posts:
        raise GraphCompileError(
            "family walk left unmatched rendezvous posts — emitter bug"
        )
    for ridx, (rnid, tag, recv_list) in enumerate(recv_reqs):
        sender = send_map.get(tag)
        if sender is None:
            raise GraphCompileError(
                f"eager receive of tag {tag!r} has no matching send"
            )
        snid, s_wire = sender
        widx = len(s_edge)
        e_dst.append(rnid)
        e_src.append(snid)
        s_edge.append(s_wire)
        recv_list.append((snid, widx, ridx))
    return walk, slot.descs


def compile_slice_graph(
    profile: ModelProfile,
    partition: PartitionScheme,
    num_micro_batches: int,
    num_sliced: int,
    cluster: Cluster,
    device_map: Sequence[int],
    *,
    aggregate: bool = True,
    comm: Optional[CommModel] = None,
) -> CompiledGraph:
    """Compile one slice-count candidate through its shape template.

    The template key is the one :func:`~repro.schedules.sliced.build_sliced`
    (count > 0) or :func:`~repro.schedules.one_f_one_b.build_1f1b`
    (count 0) gives the same schedule; :func:`family_walk` only runs on
    a miss.
    """
    plan = SlicePlan(num_sliced, num_micro_batches, aggregate)
    n = partition.num_stages
    if len(device_map) != n:
        raise ValueError("device_map must cover every pipeline stage")
    costs = [_StageCosts(profile, stage) for stage in partition.stages]
    static = [c.params * profile.train.bytes_per_param_state for c in costs]
    key = ("1f1b", n, plan.units(), aggregate and num_sliced > 0)
    return shape_graph(
        key, [[c] for c in costs], profile.boundary_bytes, cluster,
        device_map, "1f1b" if num_sliced == 0 else "autopipe-sliced",
        static,
        lambda _comm: family_walk(
            n, num_micro_batches, num_sliced, aggregate
        ),
        comm=comm,
    )


def evaluate_slice_counts(
    profile: ModelProfile,
    partition: PartitionScheme,
    num_micro_batches: int,
    slice_counts: Sequence[int],
    *,
    cluster: Optional[Cluster] = None,
    device_map: Optional[Sequence[int]] = None,
    aggregate: bool = True,
) -> List[ExecutionResult]:
    """Execute every Slicer count of one partition, batched.

    Bit-identical to calling
    :func:`repro.runtime.trainer.run_pipeline` once per count (schedule
    ``"1f1b"`` for 0, ``"sliced"`` with ``SlicePlan(count, m,
    aggregate)`` above), and raising the same ``ValueError`` for a count
    outside ``0..m`` or a non-integer ``num_micro_batches``.  Each
    candidate compiles through its shape template — on a miss it is
    emitted straight into walk arrays — and candidates sharing a
    structure relax together in one
    :func:`~repro.sim.graph_exec.run_batch` pass.  Results come back in
    ``slice_counts`` order.
    """
    m = check_micro_batches(num_micro_batches)
    for num_sliced in slice_counts:
        SlicePlan(num_sliced, m, aggregate)
    if cluster is None:
        cluster = Cluster(profile.hardware)
    if device_map is None:
        device_map = cluster.pipeline_devices(partition.num_stages)
    comm = CommModel(cluster.hw)
    results: List[Optional[ExecutionResult]] = [None] * len(slice_counts)
    groups: Dict[int, List[Tuple[int, CompiledGraph]]] = {}
    for i, num_sliced in enumerate(slice_counts):
        graph = compile_slice_graph(
            profile, partition, m, num_sliced,
            cluster, device_map, aggregate=aggregate, comm=comm,
        )
        groups.setdefault(id(graph.structure), []).append((i, graph))
    for members in groups.values():
        evaluated = run_batch([g for _, g in members])
        for (i, _g), result in zip(members, evaluated):
            results[i] = result
    return results  # type: ignore[return-value]
