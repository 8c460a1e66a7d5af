"""DAPPLE Planner reimplementation (Fan et al., PPoPP 2021).

DAPPLE's planner searches contiguous layer splits *and* per-stage device
allocations, minimising an estimated pipeline latency.  Its estimator is
optimistic in the ways that drive the behaviour the AutoPipe paper
documents:

* replicating a stage over ``r`` devices is assumed to scale its period
  linearly (``t/r``) — at execution time a stage actually splits each
  micro-batch into ``ceil(mbs/r)``-sample padded sub-batches, so the
  estimate is unreachable for ``r`` close to ``mbs`` and invalid beyond it
  (the Table III runtime error: 15 replicas at micro-batch size 4);
* pipeline latency follows the GPipe-style analytical form
  ``(m + s - 1) * bottleneck`` — one extra period of fill per stage — so
  two-stage pipelines dominate deeper ones;
* gradient allreduce is assumed hidden in the pipeline's cooldown slack,
  which exists for every stage except the first: the planner keeps the
  first stage small and unreplicated (zero allreduce) and piles layers and
  devices onto the later stages — producing the documented 2-stage plans
  with e.g. 17 of 24 GPT-2 345M layers in stage 2;
* memory is checked against a pre-mixed-precision accounting of
  16 bytes/parameter with linearly-scaled activations, which correctly
  rejects whole-model data parallelism at micro-batch 32 but wrongly
  accepts the 2-stage GPT-2 1.3B plan that OOMs at runtime (Table IV).

The search is deliberately plain-Python dynamic programming over
``(layers, devices, stages)`` with an inner device-placement validation
pass, mirroring the original's Python implementation whose "time cost is
obvious" (paper Fig. 12).
"""

from __future__ import annotations

import time as _time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import _checks
from repro.baselines.common import PlannedConfig
from repro.core.partition import PartitionScheme
from repro.models.costs import STASH_FACTOR
from repro.models.transformer import layer_groups
from repro.parallel.data_parallel import allreduce_seconds
from repro.profiling.modelconfig import ModelProfile
from repro.sim.analytic import frontier_times

_INF = float("inf")

#: DAPPLE's memory accounting: fp16 weights + fp32 optimizer pair
#: (no fp32 main gradients / master-copy bookkeeping).
DAPPLE_BYTES_PER_PARAM = 16


def _layer_units(profile: ModelProfile) -> List[Tuple[int, ...]]:
    return [tuple(g) for g in layer_groups([bp.block for bp in profile.blocks])]


def _placement_ok(
    replicas: Sequence[int], gpus_per_node: int, num_nodes: int
) -> bool:
    """DAPPLE's device-placement search for one candidate plan.

    DAPPLE evaluates its three placement strategies (fresh-first,
    append-first, scatter-first) for every candidate plan — this inner
    walk over the node grid is a large part of why its search time is
    "obvious" (paper Fig. 12).  On a homogeneous cluster all feasible
    placements score alike, so the result reduces to packing feasibility.
    """
    orders = (
        sorted(replicas, reverse=True),          # fresh-first: big stages first
        list(replicas),                          # append-first: pipeline order
        sorted(replicas),                        # scatter-first: small first
    )
    for order in orders:
        free = [gpus_per_node] * num_nodes
        packed = True
        for r in order:
            remaining = r
            # fresh-first prefers empty nodes; the others fill in order.
            nodes = sorted(range(num_nodes), key=lambda n: -free[n]) \
                if order is orders[0] else list(range(num_nodes))
            for node in nodes:
                take = min(free[node], remaining)
                free[node] -= take
                remaining -= take
                if remaining == 0:
                    break
            if remaining:
                packed = False
                break
        if packed:
            return True
    return False


def _fill_scalar(t_pre, p_pre, act_pre, ws_pre, L, G, m, max_stages, capacity):
    """The original suffix-DP loops, kept verbatim as the reference oracle."""

    def seg(k: int, l: int) -> float:
        return t_pre[l] - t_pre[k]

    def feasible(k: int, l: int, r: int, s: int) -> bool:
        static = (p_pre[l] - p_pre[k]) * DAPPLE_BYTES_PER_PARAM
        stash = (act_pre[l] - act_pre[k]) / STASH_FACTOR / r
        in_flight = min(m, s)
        return static + in_flight * stash + ws_pre[l] / r <= capacity

    suffix: List[Optional[List[List[float]]]] = [None] * max_stages
    choice: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
    last = [[_INF] * (G + 1) for _ in range(L + 1)]
    for l in range(L):
        for g in range(1, G + 1):
            # The last stage keeps a single micro-batch in flight.
            if feasible(l, L, g, 1):
                last[l][g] = seg(l, L) / g
    suffix[1] = last
    for c in range(2, max_stages):
        cur = [[_INF] * (G + 1) for _ in range(L + 1)]
        prev = suffix[c - 1]
        for l in range(L - c, -1, -1):
            for g in range(c, G + 1):
                best = _INF
                best_choice = None
                for k in range(l + 1, L - c + 2):
                    for r in range(1, g - (c - 1) + 1):
                        if prev[k][g - r] == _INF:
                            continue
                        # The head of a c-stage suffix keeps c micro-batches
                        # in flight under 1F1B.
                        if not feasible(l, k, r, c):
                            continue
                        cand = max(prev[k][g - r], seg(l, k) / r)
                        if cand < best:
                            best = cand
                            best_choice = (k, r)
                cur[l][g] = best
                if best_choice is not None:
                    choice[(c, l, g)] = best_choice
        suffix[c] = cur
    return suffix, choice


def _fill_vector(t_pre, p_pre, act_pre, ws_pre, L, G, m, max_stages, capacity):
    """Suffix DP as broadcast relaxations over ``(l, k, r, g)`` blocks.

    Bit-identical to :func:`_fill_scalar`: every elementwise operation
    reproduces the scalar expression's float order (notably the two-step
    ``act / STASH_FACTOR / r`` stash division), infeasible and
    out-of-range candidates are masked to ``+inf`` (which strict ``<``
    never accepts), and C-order flattening of the ``(k, r)`` axes keeps
    ``argmin``'s first occurrence on the scalar k-outer, r-inner
    first-win tie-break.  Property-tested in
    ``tests/baselines/test_vectorized_dp.py``.
    """
    t_arr = np.asarray(t_pre)
    p_arr = np.asarray(p_pre)
    act_arr = np.asarray(act_pre)
    ws_arr = np.asarray(ws_pre)
    # [a, b] = units a..b-1 (b > a meaningful).
    segT = t_arr[None, :] - t_arr[:, None]
    static = (p_arr[None, :] - p_arr[:, None]) * DAPPLE_BYTES_PER_PARAM
    act_d = (act_arr[None, :] - act_arr[:, None]) / STASH_FACTOR
    ks = np.arange(L + 1)
    empty = ks[None, :] <= ks[:, None]  # b <= a: not a stage

    # The memory mask depends on (r, in_flight) only; in_flight saturates
    # at m, so deep layers share cached masks.
    feas_cache: Dict[Tuple[int, int], np.ndarray] = {}

    def _feas(r: int, s: int) -> np.ndarray:
        in_flight = min(m, s)
        mask = feas_cache.get((r, in_flight))
        if mask is None:
            stash = act_d / r
            mem = static + in_flight * stash + ws_arr[None, :] / r
            mask = mem <= capacity
            feas_cache[(r, in_flight)] = mask
        return mask

    suffix: List[Optional[np.ndarray]] = [None] * max_stages
    choice: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
    last = np.full((L + 1, G + 1), _INF)
    for g in range(1, G + 1):
        # The last stage keeps a single micro-batch in flight.
        col = segT[:L, L] / g
        last[:L, g] = np.where(_feas(g, 1)[:L, L], col, _INF)
    suffix[1] = last
    for c in range(2, max_stages):
        prev = suffix[c - 1]
        gs = np.arange(c, G + 1)
        rs = np.arange(1, G - c + 2)
        ng, nr = len(gs), len(rs)
        # prev[k][g - r]: negative g - r masked to inf; g - r < c - 1
        # entries are inf already (never written), matching the scalar
        # loop's r bound.
        gd = gs[None, :] - rs[:, None]
        neg = gd < 0
        gd_safe = np.where(neg, 0, gd)
        tail = prev[:, gd_safe]  # (k, r, g)
        tail[:, neg] = _INF
        head = np.empty((L + 1, L + 1, nr))
        for ri, r in enumerate(rs):
            head[:, :, ri] = np.where(
                empty | ~_feas(int(r), c), _INF, segT / r
            )
        cur = np.full((L + 1, G + 1), _INF)
        chunk = max(1, int(32e6 / ((L + 1) * nr * ng * 8)))
        for lo in range(0, L - c + 1, chunk):
            hi = min(lo + chunk, L - c + 1)
            # k <= l is masked via `empty`; k > L - c + 1 self-masks
            # through prev's inf rows.
            cand = np.maximum(
                head[lo:hi, :, :, None], tail[None, :, :, :]
            )
            flat = cand.reshape(hi - lo, (L + 1) * nr, ng)
            pick = np.argmin(flat, axis=1)
            vals = np.take_along_axis(flat, pick[:, None, :], axis=1)[:, 0]
            cur[lo:hi, c:] = vals
            ls, gi = np.nonzero(vals < _INF)
            ki, ri = np.divmod(pick[ls, gi], nr)
            for li, g_i, k_i, r_i in zip(ls, gi, ki, ri):
                choice[(c, int(lo + li), int(gs[g_i]))] = (
                    int(k_i), int(rs[r_i])
                )
        suffix[c] = cur
    return suffix, choice


def plan_dapple(
    profile: ModelProfile,
    num_gpus: int,
    global_batch_size: int,
) -> PlannedConfig:
    """Run the DAPPLE planner and return its chosen configuration.

    The suffix-DP tables are filled by broadcast numpy relaxations
    (:func:`_fill_vector`), bit-identical to the original loops kept as
    :func:`_fill_scalar`, so the plans are identical too.
    """
    t0 = _time.perf_counter()
    num_gpus = _checks.count("num_gpus", num_gpus)
    global_batch_size = _checks.count("global_batch_size", global_batch_size)
    mbs = profile.train.micro_batch_size
    if global_batch_size % mbs != 0:
        raise ValueError("global batch not divisible by micro-batch size")
    m = global_batch_size // mbs

    units = _layer_units(profile)
    L = len(units)
    G = num_gpus
    hw = profile.hardware
    capacity = hw.gpu_memory

    # Prefix tables over layer units (plain Python lists, see docstring).
    t_pre = [0.0]
    p_pre = [0.0]
    act_pre = [0.0]
    ws_pre = [0.0]
    for u in units:
        t_pre.append(t_pre[-1] + sum(
            profile.blocks[i].fwd_time + profile.blocks[i].bwd_time for i in u
        ))
        p_pre.append(p_pre[-1] + sum(profile.blocks[i].params for i in u))
        act_pre.append(act_pre[-1] + sum(
            profile.blocks[i].stash_bytes for i in u
        ))
        ws_pre.append(max(ws_pre[-1], max(
            profile.blocks[i].workspace_bytes for i in u
        )))

    def seg(k: int, l: int) -> float:
        return t_pre[l] - t_pre[k]

    def feasible(k: int, l: int, r: int, s: int) -> bool:
        """DAPPLE's optimistic memory check for one stage.

        Raw activation bytes (no checkpoint/residual overhead factor),
        linear replication scaling, and 16 B/param — enough to reject the
        obviously-infeasible, but it books ~20% less than Megatron's
        mixed-precision runtime actually allocates, which is how the
        2-stage GPT-2 1.3B plan slips through to a runtime OOM.
        """
        static = (p_pre[l] - p_pre[k]) * DAPPLE_BYTES_PER_PARAM
        stash = (act_pre[l] - act_pre[k]) / STASH_FACTOR / r
        in_flight = min(m, s)
        return static + in_flight * stash + ws_pre[l] / r <= capacity

    max_stages = min(G, L)
    if max_stages < 2:
        raise RuntimeError("DAPPLE plans pipelines; it needs >= 2 stages")
    # suffix[c][l][g]: minimal max stage period covering units l..L with g
    # devices in c stages (all of which hide their allreduce in cooldown
    # slack, so bottleneck alone ranks them).
    suffix, choice = _fill_vector(
        t_pre, p_pre, act_pre, ws_pre, L, G, m, max_stages, capacity
    )

    def reconstruct(s: int, k1: int, r1: int) -> Tuple[List[int], List[int]]:
        sizes = [k1]
        replicas = [r1]
        l, g = k1, G - r1
        for c in range(s - 1, 1, -1):
            k, r = choice[(c, l, g)]
            sizes.append(k - l)
            replicas.append(r)
            l, g = k, g - r
        sizes.append(L - l)
        replicas.append(g)
        return sizes, replicas

    fwd_pre = [0.0]
    for u in units:
        fwd_pre.append(
            fwd_pre[-1] + sum(profile.blocks[i].fwd_time for i in u)
        )

    def simulate(
        group: List[Tuple[List[int], List[int], float]],
    ) -> List[float]:
        """DAPPLE's lightweight pipeline simulation of candidate plans.

        The original planner scores candidates with a built-in simulator
        rather than a closed form.  Stage periods use the planner's
        optimistic linear t/r scaling.  One stage count's candidates are
        scored together by one frontier-kernel sweep, bit-identical to a
        scalar ``PipelineSim(..., comm_mode="edges")`` run per candidate.
        """
        fwd = []
        bwd = []
        for sizes, replicas, _ in group:
            f_row = []
            b_row = []
            pos = 0
            for size, r in zip(sizes, replicas):
                f = fwd_pre[pos + size] - fwd_pre[pos]
                t = t_pre[pos + size] - t_pre[pos]
                f_row.append(f / r)
                b_row.append((t - f) / r)
                pos += size
            fwd.append(f_row)
            bwd.append(b_row)
        return frontier_times(
            fwd, bwd, profile.comm_time, m, comm_mode="edges"
        ).tolist()

    best_cost = _INF
    best_bound = _INF
    best_sizes: Optional[List[int]] = None
    best_replicas: Optional[List[int]] = None
    # DAPPLE is a pipeline planner: the degenerate single-stage (pure data
    # parallel) configuration is its comparison baseline, not a plan it
    # emits — the paper's Table III shows it pipelining even when pure DP
    # would have been both feasible and faster.  The first stage is
    # enumerated explicitly because only its allreduce is unhidden (no
    # cooldown slack precedes it); budgeted conservatively at 2x the ring
    # time (bucketing + straggler margin).
    # The head-stage feasibility, allreduce and placement verdicts are
    # pure functions of small keys that recur across thousands of
    # (s, k1, r1) candidates — memoized, not recomputed.
    placement_cache: Dict[Tuple[int, ...], bool] = {}
    head_feasible: Dict[Tuple[int, int, int], bool] = {}
    allreduce_cache: Dict[Tuple[int, int], float] = {}
    for s in range(2, max_stages + 1):
        # Which candidates get simulated depends only on the analytical
        # bound and the placement check, never on a simulated cost, so
        # one stage count's candidates are collected first, scored in
        # one sweep, and the strict ``<`` is replayed in their order.
        group: List[Tuple[List[int], List[int], float]] = []
        for k1 in range(1, L - (s - 1) + 1):
            for r1 in range(1, G - (s - 1) + 1):
                tail = suffix[s - 1][k1][G - r1]
                if tail == _INF:
                    continue
                fkey = (k1, r1, min(m, s))
                head_ok = head_feasible.get(fkey)
                if head_ok is None:
                    head_ok = feasible(0, k1, r1, s)
                    head_feasible[fkey] = head_ok
                if not head_ok:
                    continue
                p = max(seg(0, k1) / r1, tail)
                unhidden = allreduce_cache.get((k1, r1))
                if unhidden is None:
                    unhidden = 2.0 * allreduce_seconds(p_pre[k1], r1, hw)
                    allreduce_cache[(k1, r1)] = unhidden
                # Analytical lower bound prunes hopeless candidates before
                # reconstruction, placement and the simulation; neither
                # pruned nor placement-rejected candidates touch the
                # incumbents, so checking the bound first is a pure
                # reordering.
                bound = (m - 1) * p + unhidden
                if bound > 1.5 * best_bound:
                    continue
                # DAPPLE validates device placement per candidate plan;
                # the verdict only depends on the replica vector, which
                # recurs heavily across (s, k1, r1) candidates.
                sizes, replicas = reconstruct(s, k1, r1)
                key = tuple(replicas)
                ok = placement_cache.get(key)
                if ok is None:
                    ok = _placement_ok(
                        replicas, hw.gpus_per_node, hw.num_nodes
                    )
                    placement_cache[key] = ok
                if not ok:
                    continue
                best_bound = min(best_bound, bound)
                group.append((sizes, replicas, unhidden))
        if not group:
            continue
        for (sizes, replicas, unhidden), t in zip(group, simulate(group)):
            cost = t + unhidden
            if cost < best_cost:
                best_cost = cost
                best_sizes, best_replicas = sizes, replicas

    if best_sizes is None or best_replicas is None:
        raise RuntimeError("DAPPLE planner found no feasible plan")
    sizes, replicas = best_sizes, best_replicas
    stages: List[Tuple[int, ...]] = []
    pos = 0
    for size in sizes:
        blocks: List[int] = []
        for u in units[pos:pos + size]:
            blocks.extend(u)
        stages.append(tuple(blocks))
        pos += size
    return PlannedConfig(
        planner="dapple",
        partition=PartitionScheme(tuple(stages)),
        replicas=tuple(replicas),
        num_gpus=G,
        search_seconds=_time.perf_counter() - t0,
        predicted=best_cost,
        semantics="subbatch",
        notes=f"{len(sizes)}-stage, replicas={replicas}",
    )
