"""Piper reimplementation (Tarnawski et al., NeurIPS 2021).

Piper is a two-level dynamic program that partitions the model into
contiguous stages, assigns each stage its own data-parallel width, and
minimises **time-per-sample (TPS)** under per-device memory constraints.
TPS is a steady-state throughput metric: it charges each stage its
amortised period ``t_s / d_s`` plus communication and amortised gradient
allreduce, but contains **no pipeline fill/drain term** — which is exactly
the behaviour the AutoPipe paper criticises: "it reduces the TPS by
partitioning the model into more stages, making the pipeline inefficient".
Ties in the max-bottleneck objective are broken toward more stages,
matching the observed 4-stage (4 GPUs) / 6-stage (8 GPUs) choices.

The DP runs right-to-left over ``(first uncovered layer, devices left,
stages left)`` so that each stage knows how many stages follow it and can
bound its 1F1B in-flight micro-batches for the memory check — with low
memory demand the single-stage (pure data parallel) configuration is
feasible and wins (Table III); with high demand the memory constraint
forces pipelining (Table IV).
"""

from __future__ import annotations

import time as _time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.common import PlannedConfig
from repro.core.partition import PartitionScheme, _check_count
from repro.models.transformer import layer_groups
from repro.profiling.modelconfig import ModelProfile

_INF = float("inf")


def tp_widths(gpus_per_node: int) -> Tuple[int, ...]:
    """Admissible Megatron tensor-parallel widths for this hardware.

    TP shards every layer's GEMMs across NVLink-connected devices, so a
    width must divide the node size — the divisors of
    ``gpus_per_node``, not a hardcoded ``(1, 2, 4, 8)`` (which silently
    dropped e.g. width 3 or 6 on 6-GPU nodes and probed impossible
    width 8 on 4-GPU ones).
    """
    if gpus_per_node <= 0:
        raise ValueError("gpus_per_node must be positive")
    return tuple(
        t for t in range(1, gpus_per_node + 1) if gpus_per_node % t == 0
    )


def _layer_units(profile: ModelProfile) -> List[Tuple[int, ...]]:
    return [tuple(g) for g in layer_groups([bp.block for bp in profile.blocks])]


class _StageTables:
    """Prefix tables over layer units for O(1) stage cost/memory queries."""

    def __init__(self, profile: ModelProfile, units: Sequence[Tuple[int, ...]]):
        self.time = [0.0]
        self.params = [0.0]
        self.stash = [0.0]
        self.workspace: List[float] = []
        running_ws = 0.0
        for u in units:
            t = sum(
                profile.blocks[i].fwd_time + profile.blocks[i].bwd_time
                for i in u
            )
            p = sum(profile.blocks[i].params for i in u)
            st = sum(profile.blocks[i].stash_bytes for i in u)
            self.time.append(self.time[-1] + t)
            self.params.append(self.params[-1] + p)
            self.stash.append(self.stash[-1] + st)
            running_ws = max(
                running_ws,
                max(profile.blocks[i].workspace_bytes for i in u),
            )
            self.workspace.append(running_ws)

    def seg_time(self, k: int, l: int) -> float:
        return self.time[l] - self.time[k]

    def seg_params(self, k: int, l: int) -> float:
        return self.params[l] - self.params[k]

    def seg_stash(self, k: int, l: int) -> float:
        return self.stash[l] - self.stash[k]

    def seg_workspace(self, k: int, l: int) -> float:
        # workspace[i] is the running max over units 0..i; a segment max
        # needs a real scan, but the global max is a sound upper bound for
        # tail segments and exact for any segment containing the head.
        return self.workspace[l - 1]


def _fill_scalar(
    tables: "_StageTables",
    L: int,
    G: int,
    m: int,
    profile: ModelProfile,
    widths: Tuple[int, ...],
    max_stages: int,
):
    """The original quadruple-loop DP, kept as the reference oracle."""
    hw = profile.hardware
    capacity = hw.gpu_memory
    state_bytes = profile.train.bytes_per_param_state
    comm = profile.comm_time
    boundary_bytes = profile.boundary_bytes

    def stage_cost_dt(
        k: int, l: int, d: int, t: int, stages_after: int
    ) -> float:
        """TPS contribution of one stage with (dp=d, tp=t), or inf if OOM."""
        if m % d != 0:
            return _INF
        in_flight = min(m // d, stages_after + 1)
        mem = (
            tables.seg_params(k, l) * state_bytes / t
            + in_flight * tables.seg_stash(k, l) / t
            + tables.seg_workspace(k, l) / t
        )
        if mem > capacity:
            return _INF
        period = tables.seg_time(k, l) / (d * t)
        boundary = comm if (k > 0 or l < L) else 0.0
        # Replicated stages pay a per-micro-batch sync launch for the
        # scatter of inputs across their replicas.
        sync = 2 * hw.link_latency if (d > 1 and (k > 0 or l < L)) else 0.0
        if t > 1:
            # Megatron tensor parallelism: two activation allreduces per
            # layer per micro-batch, forward and backward — ruinous over
            # this cluster's links, so Piper searches but never picks it.
            layers = (l - k)
            tp_volume = 4.0 * layers * boundary_bytes
            period += 2.0 * (t - 1) / t * tp_volume \
                / hw.effective_bandwidth(inter_node=False)
        # Piper assumes gradient allreduce overlaps with backward compute
        # (DDP-style bucketing), so resync adds nothing to its TPS — one of
        # the optimistic assumptions its execution results pay for.
        return period + boundary + sync

    def stage_cost(k: int, l: int, g: int, stages_after: int) -> float:
        """Best (d, t) split of ``g`` devices for one stage.

        Piper's decision space assigns each stage a data-parallel width
        *and* a tensor-parallel width with ``d * t = g``; ``t`` ranges
        over the hardware-admissible widths that divide ``g``.
        """
        best = _INF
        for t in widths:
            if g % t != 0:
                continue
            best = min(best, stage_cost_dt(k, l, g // t, t, stages_after))
        return best

    # best[c][l][g]: minimal bottleneck covering units l..L with g devices
    # in exactly c stages (c counts the stages from l to the end).
    best: List[Optional[List[List[float]]]] = [None] * (max_stages + 1)
    choice: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
    last = [[_INF] * (G + 1) for _ in range(L + 1)]
    for l in range(L):
        for g in range(1, G + 1):
            last[l][g] = stage_cost(l, L, g, 0)
    best[1] = last
    for c in range(2, max_stages + 1):
        cur = [[_INF] * (G + 1) for _ in range(L + 1)]
        prev = best[c - 1]
        for l in range(L - c, -1, -1):
            for g in range(c, G + 1):
                b = _INF
                pick = None
                for k in range(l + 1, L - c + 2):
                    for d in range(1, g - (c - 1) + 1):
                        head = stage_cost(l, k, d, c - 1)
                        if head == _INF:
                            continue
                        cand = max(head, prev[k][g - d])
                        if cand < b:
                            b = cand
                            pick = (k, d)
                cur[l][g] = b
                if pick is not None:
                    choice[(c, l, g)] = pick
        best[c] = cur
    return best, choice


def _fill_vector(
    tables: "_StageTables",
    L: int,
    G: int,
    m: int,
    profile: ModelProfile,
    widths: Tuple[int, ...],
    max_stages: int,
):
    """Vectorised relaxation, bit-identical to :func:`_fill_scalar`.

    Per stage count ``c`` the full ``(segment × devices)`` stage-cost
    tensor is built from broadcast prefix-difference matrices (one
    masked elementwise-min fold over the admissible TP widths — the
    min-fold value is order-independent, so folding ascending matches
    the scalar ``min``), then each ``(l, g)`` layer relaxes against the
    previous count with one flattened ``(k, d)`` argmin whose
    first-occurrence semantics reproduce the scalar loop's k-major,
    d-minor first-win tie-break exactly.  Infeasible candidates carry
    ``+inf``, which the scalar strict ``<`` never accepts either.
    """
    hw = profile.hardware
    capacity = hw.gpu_memory
    state_bytes = profile.train.bytes_per_param_state
    comm = profile.comm_time
    boundary_bytes = profile.boundary_bytes
    bw_local = hw.effective_bandwidth(inter_node=False)

    time_pre = np.asarray(tables.time)
    params_pre = np.asarray(tables.params)
    stash_pre = np.asarray(tables.stash)
    # seg matrices indexed [a, b] = units a..b-1 (b > a meaningful).
    segT = time_pre[None, :] - time_pre[:, None]
    segP = params_pre[None, :] - params_pre[:, None]
    segS = stash_pre[None, :] - stash_pre[:, None]
    # seg_workspace(a, b) = running-max workspace up to unit b-1.
    ws_row = np.empty(L + 1)
    ws_row[0] = 0.0  # b == 0 is masked as empty anyway
    ws_row[1:] = np.asarray(tables.workspace)
    layers = np.arange(L + 1)[None, :] - np.arange(L + 1)[:, None]
    empty = layers <= 0  # b <= a: not a stage
    # boundary/sync apply unless the stage is the whole model (0, L).
    bnd = np.full((L + 1, L + 1), comm)
    bnd[0, L] = 0.0
    sync_mat = np.full((L + 1, L + 1), 2 * hw.link_latency)
    sync_mat[0, L] = 0.0
    zeros = np.zeros((L + 1, L + 1))

    # Stage time (period + boundary + sync) depends on (t, g) only, the
    # memory mask on (t, in_flight) only — cache both across the stage
    # counts, which differ just in how deep 1F1B stacks in-flight
    # micro-batches.
    clean_cache: Dict[Tuple[int, int], np.ndarray] = {}
    mask_cache: Dict[Tuple[int, int], np.ndarray] = {}

    def _clean(t: int, g: int) -> np.ndarray:
        res = clean_cache.get((t, g))
        if res is None:
            d = g // t
            period = segT / (d * t)
            if t > 1:
                tp_volume = 4.0 * layers * boundary_bytes
                period = period + 2.0 * (t - 1) / t * tp_volume / bw_local
            sync = sync_mat if d > 1 else zeros
            res = period + bnd + sync
            clean_cache[(t, g)] = res
        return res

    def _oom(t: int, in_flight: int) -> np.ndarray:
        mask = mask_cache.get((t, in_flight))
        if mask is None:
            mem = (
                segP * state_bytes / t
                + in_flight * segS / t
                + ws_row[None, :] / t
            )
            mask = empty | (mem > capacity)
            mask_cache[(t, in_flight)] = mask
        return mask

    def cost_tensor(stages_after: int) -> np.ndarray:
        """``C[a, b, g]`` = scalar ``stage_cost(a, b, g, stages_after)``."""
        out = np.full((L + 1, L + 1, G + 1), _INF)
        for t in widths:
            for g in range(t, G + 1, t):
                d = g // t
                if m % d != 0:
                    continue
                in_flight = min(m // d, stages_after + 1)
                res = np.where(
                    _oom(t, in_flight), _INF, _clean(t, g)
                )
                np.minimum(out[:, :, g], res, out=out[:, :, g])
        return out

    best: List[Optional[np.ndarray]] = [None] * (max_stages + 1)
    choice: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
    cost1 = cost_tensor(0)
    last = np.full((L + 1, G + 1), _INF)
    last[:L, 1:] = cost1[:L, L, 1:]
    best[1] = last
    # Cap the relaxation workspace: chunk the l axis so the 4-D
    # (l, k, d, g) candidate block stays within ~32 MB.
    for c in range(2, max_stages + 1):
        prev = best[c - 1]
        cost = cost_tensor(c - 1)
        gs = np.arange(c, G + 1)
        ds = np.arange(1, G - c + 2)
        ng, nd = len(gs), len(ds)
        # prev[k][g - d]: negative g - d masked to inf; g - d < c - 1
        # rows are inf already, matching the scalar loop's d bound.
        gd = gs[None, :] - ds[:, None]
        neg = gd < 0
        gd_safe = np.where(neg, 0, gd)
        tail = prev[:, gd_safe]  # (k, d, g)
        tail[:, neg] = _INF
        head = cost[:, :, ds]  # (l, k, d)
        cur = np.full((L + 1, G + 1), _INF)
        chunk = max(1, int(32e6 / ((L + 1) * nd * ng * 8)))
        for lo in range(0, L - c + 1, chunk):
            hi = min(lo + chunk, L - c + 1)
            # Out-of-range k / d carry inf from the cost's empty mask or
            # prev's unfilled rows, so no explicit bounds mask is needed;
            # C-order flattening keeps the scalar k-major, d-minor
            # first-win tie-break under argmin's first occurrence.
            cand = np.maximum(
                head[lo:hi, :, :, None], tail[None, :, :, :]
            )
            flat = cand.reshape(hi - lo, (L + 1) * nd, ng)
            pick = np.argmin(flat, axis=1)
            vals = np.take_along_axis(flat, pick[:, None, :], axis=1)[:, 0]
            cur[lo:hi, c:] = vals
            ls, gi = np.nonzero(vals < _INF)
            ki, di = np.divmod(pick[ls, gi], nd)
            for li, g_i, k_i, d_i in zip(ls, gi, ki, di):
                choice[(c, int(lo + li), int(gs[g_i]))] = (
                    int(k_i), int(ds[d_i])
                )
        best[c] = cur
    return best, choice


def plan_piper(
    profile: ModelProfile,
    num_gpus: int,
    global_batch_size: int,
) -> PlannedConfig:
    """Run the Piper planner and return its chosen configuration.

    The DP runs as a numpy relaxation (:func:`_fill_vector`),
    bit-identical in plans, costs and tie-breaks to the original loops
    kept as :func:`_fill_scalar` (property-tested in
    ``tests/baselines/test_vectorized_dp.py``).
    """
    t0 = _time.perf_counter()
    num_gpus = _check_count("num_gpus", num_gpus)
    global_batch_size = _check_count("global_batch_size", global_batch_size)
    mbs = profile.train.micro_batch_size
    if global_batch_size % mbs != 0:
        raise ValueError("global batch not divisible by micro-batch size")
    m = global_batch_size // mbs

    units = _layer_units(profile)
    tables = _StageTables(profile, units)
    L = len(units)
    G = num_gpus
    hw = profile.hardware
    max_stages = min(G, L)
    t_widths = tp_widths(hw.gpus_per_node)

    best, choice = _fill_vector(
        tables, L, G, m, profile, t_widths, max_stages
    )

    # Minimal TPS; ties broken toward more stages (Piper's tendency).
    best_c, best_tps = None, _INF
    for c in range(1, max_stages + 1):
        tps = float(best[c][0][G])
        if tps < best_tps - 1e-12 or (
            best_c is not None and abs(tps - best_tps) <= 1e-12 and c > best_c
        ):
            best_c, best_tps = c, tps
    if best_c is None or best_tps == _INF:
        raise RuntimeError("Piper found no memory-feasible configuration")

    sizes: List[int] = []
    widths: List[int] = []
    l, g = 0, G
    for c in range(best_c, 1, -1):
        k, d = choice[(c, l, g)]
        sizes.append(k - l)
        widths.append(d)
        l, g = k, g - d
    sizes.append(L - l)
    widths.append(g)

    stages: List[Tuple[int, ...]] = []
    pos = 0
    for size in sizes:
        blocks: List[int] = []
        for u in units[pos:pos + size]:
            blocks.extend(u)
        stages.append(tuple(blocks))
        pos += size
    return PlannedConfig(
        planner="piper",
        partition=PartitionScheme(tuple(stages)),
        replicas=tuple(widths),
        num_gpus=G,
        search_seconds=_time.perf_counter() - t0,
        predicted=best_tps,
        semantics="stream",
        notes=f"{len(sizes)}-stage, widths={widths}",
    )
