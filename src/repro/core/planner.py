"""AutoPipe Planner: heuristic pipeline partition search (Section III-B-2).

The partitioner works on **units**: at sub-layer granularity every block is
its own unit; at layer granularity (the ablation baseline) a unit is a whole
transformer layer.  The search is the paper's three-step loop:

1. Seed with Algorithm 1 (min-max DP) over unit weights ``f_i + b_i`` and
   simulate to find the master stage ``i`` and iteration time.
2. *Cooldown adjustment*: redistribute the units of stages after the master
   so that every prefix satisfies Eq. (1),
   ``sum_{j=i+1..s} (f_j + b_j) <= (s - i) * b_i``  —  i.e. the round trip
   below the master for any turnaround depth is covered by the master's
   back-to-back BPs, removing its Cooldown bubble (Fig. 7(c)).  We fill each
   trailing stage with as many units as the constraint allows (pushing any
   surplus toward the last stage, which has Cooldown slack).
3. *Master shift*: move the master's first unit to stage ``i-1`` or its
   last unit to stage ``i+1``, each with and without an Algorithm 1
   rebalance of the prefix, producing up to four candidate schemes.
   Candidates whose master is still <= ``i`` are processed again by step 2;
   the scheme with the minimum simulated iteration time wins.

The search space is bounded by the pipeline depth (the master only moves
forward), so the whole search typically evaluates tens of schemes.
"""

from __future__ import annotations

import time as _time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.analytic_sim import PipelineSim, SimResult
from repro.core.balance_dp import BalanceTable
from repro.core.partition import PartitionScheme, StageTimes
from repro.models.transformer import layer_groups
from repro.obs import stats as _stats
from repro.obs import telemetry as _obs
from repro.profiling.modelconfig import ModelProfile
from repro.robustness.evaluate import RobustObjective, robust_objective_value

Sizes = Tuple[int, ...]

#: cache key: per-stage times, micro-batch count, comm mode and the
#: scoring executor that produced the result.  Every lattice-family
#: evaluator (scalar :class:`PipelineSim`, the batched/suffix paths and
#: the closed-form frontier kernel of :mod:`repro.sim.analytic`) is
#: bit-identical and shares the default ``"lattice"`` family tag;
#: results from executors with different semantics (the event-driven
#: engine's DES timings, say) must carry their own tag so cached values
#: never alias across scorers.
_SimKey = Tuple[Tuple[float, ...], Tuple[float, ...], float, int, str, str]


class SimCache:
    """Cross-call memo of :class:`PipelineSim` results.

    ``plan_partition`` already memoises within one search (its per-call
    ``sizes`` cache also defines the reported evaluation count).  Sweeps —
    the Table III/IV planner comparisons, Fig. 12 scaling — re-plan many
    overlapping configurations whose candidate partitions aggregate to the
    *same stage-time vectors*; sharing one ``SimCache`` across those calls
    skips the redundant simulations entirely.  Results are immutable and
    the key captures every simulator input, so sharing is semantics-free:
    callers get bit-identical :class:`SimResult` objects either way.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict[_SimKey, SimResult]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters.

        Tests and benches that share the process-wide
        :func:`default_sim_cache` call this to measure from a cold cache
        instead of inheriting cross-test state.
        """
        self._data.clear()
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo (0.0 when untouched).

        Thin view over :func:`repro.obs.stats.hit_rate` — the same
        formula the telemetry report derives from the
        ``*.sim_cache.hits``/``.misses`` counters, so the two surfaces
        cannot disagree.
        """
        return _stats.hit_rate(self.hits, self.misses)

    def peek(
        self,
        times: StageTimes,
        num_micro_batches: int,
        comm_mode: str,
        executor: str = "lattice",
    ) -> Optional[SimResult]:
        """Cache lookup that never simulates: the memoised result or None.

        Counts a hit when present; a miss leaves the counters untouched
        (``misses`` keeps meaning "simulations actually run").  Used by the
        exhaustive oracle to harvest vectors the planner already evaluated
        before falling through to batched evaluation.  ``executor`` is the
        key's scoring-executor tag (see :data:`_SimKey`); the default
        covers the whole bit-identical lattice family, frontier kernel
        included.
        """
        key = (
            times.fwd, times.bwd, times.comm, num_micro_batches, comm_mode,
            executor,
        )
        sim = self._data.get(key)
        if sim is not None:
            self.hits += 1
            self._data.move_to_end(key)
        return sim

    def simulate(
        self,
        times: StageTimes,
        num_micro_batches: int,
        comm_mode: str,
        runner: Optional[Callable[[], SimResult]] = None,
        executor: str = "lattice",
    ) -> SimResult:
        """Return the memoised simulation of ``times``, running it once.

        ``runner`` substitutes the evaluation on a miss — the planner's
        worker-pool prefetch passes an already computed result here.  Any
        runner must be bit-identical to the cold simulation under the
        entry's ``executor`` tag, so cached semantics are unchanged.
        """
        key = (
            times.fwd, times.bwd, times.comm, num_micro_batches, comm_mode,
            executor,
        )
        sim = self._data.get(key)
        if sim is not None:
            self.hits += 1
            self._data.move_to_end(key)
            return sim
        self.misses += 1
        if runner is not None:
            sim = runner()
        else:
            sim = PipelineSim(times, num_micro_batches, comm_mode=comm_mode).run()
        self._data[key] = sim
        if len(self._data) > self.max_entries:
            self._data.popitem(last=False)
        return sim


#: process-wide memo shared by the sweep entry points (``autopipe_config``,
#: ``evaluate_config``, DAPPLE's candidate scoring).  Safe to share because
#: results are immutable and keyed by every simulator input.
_DEFAULT_SIM_CACHE = SimCache(max_entries=8192)


def default_sim_cache() -> SimCache:
    """The process-wide :class:`SimCache` used when callers pass none."""
    return _DEFAULT_SIM_CACHE


@dataclass(frozen=True)
class PlannerResult:
    """Outcome of one planning run."""

    partition: PartitionScheme
    sim: SimResult
    #: number of distinct schemes simulated.
    evaluations: int
    #: wall-clock planning time, seconds (Fig. 12 metric).
    search_seconds: float
    granularity: str
    history: Tuple[Tuple[Sizes, float], ...] = field(default=())
    #: the winning scheme's robust objective value (statistic over the
    #: perturbation draws) when planning with ``robust=``; None otherwise.
    robust_value: Optional[float] = None
    #: worker processes candidate waves ran on (1 = in-process serial).
    jobs: int = 1
    #: times the best-so-far scheme was replaced during the search
    #: (folds into the ``planner.incumbent_updates`` telemetry counter).
    incumbent_updates: int = 0

    @property
    def iteration_time(self) -> float:
        return self.sim.iteration_time

    @property
    def sims_per_second(self) -> float:
        """Search throughput: schemes evaluated per wall-clock second.

        Thin view over :func:`repro.obs.stats.rate` — the same formula
        the telemetry report derives from the ``planner.evaluations`` /
        ``planner.search_seconds`` counters, which are folded from these
        very fields.
        """
        return _stats.rate(self.evaluations, self.search_seconds)


class _UnitSpace:
    """Partition arithmetic over granularity units instead of raw blocks."""

    def __init__(self, profile: ModelProfile, granularity: str) -> None:
        if granularity == "sublayer":
            units = [(i,) for i in range(profile.num_blocks)]
        elif granularity == "layer":
            units = [tuple(g) for g in layer_groups(
                [bp.block for bp in profile.blocks])]
        else:
            raise ValueError(f"unknown granularity {granularity!r}")
        self.units: List[Tuple[int, ...]] = units
        self.profile = profile
        self.fwd = [
            sum(profile.blocks[i].fwd_time for i in u) for u in units
        ]
        self.bwd = [
            sum(profile.blocks[i].bwd_time for i in u) for u in units
        ]
        self.weights = [f + b for f, b in zip(self.fwd, self.bwd)]
        state = profile.train.bytes_per_param_state
        self.static = [
            sum(profile.blocks[i].params for i in u) * state for u in units
        ]
        self.stash = [
            sum(profile.blocks[i].stash_bytes for i in u) for u in units
        ]
        self.workspace = [
            max(profile.blocks[i].workspace_bytes for i in u) for u in units
        ]
        self._balance: Optional[BalanceTable] = None

    def balance_table(self, max_stages: int) -> BalanceTable:
        """The shared Algorithm-1 table over this space's unit weights.

        One table answers every (prefix, stages) rebalance query the
        planner makes — the seed and all master-shift candidates — so
        the DP runs once per plan instead of once per shift.
        """
        cached = self._balance
        if cached is None or cached.max_stages < max_stages:
            cached = BalanceTable(self.weights, max_stages)
            self._balance = cached
        return cached

    def stage_memory(self, sizes: Sizes, num_micro_batches: int) -> List[float]:
        """Predicted per-stage peak bytes under 1F1B for this partition."""
        n = len(sizes)
        out: List[float] = []
        pos = 0
        for s, size in enumerate(sizes):
            in_flight = min(num_micro_batches, n - s)
            static = sum(self.static[pos:pos + size])
            stash = sum(self.stash[pos:pos + size])
            workspace = max(self.workspace[pos:pos + size])
            out.append(static + in_flight * stash + workspace)
            pos += size
        return out

    @property
    def num_units(self) -> int:
        return len(self.units)

    def to_partition(self, sizes: Sizes) -> PartitionScheme:
        stages: List[Tuple[int, ...]] = []
        pos = 0
        for size in sizes:
            blocks: List[int] = []
            for u in self.units[pos:pos + size]:
                blocks.extend(u)
            stages.append(tuple(blocks))
            pos += size
        return PartitionScheme(tuple(stages))

    def stage_times(self, sizes: Sizes) -> StageTimes:
        fwd: List[float] = []
        bwd: List[float] = []
        pos = 0
        for size in sizes:
            fwd.append(sum(self.fwd[pos:pos + size]))
            bwd.append(sum(self.bwd[pos:pos + size]))
            pos += size
        return StageTimes(tuple(fwd), tuple(bwd), self.profile.comm_time)


def _cooldown_adjust(
    sizes: Sizes, master: int, space: _UnitSpace
) -> Sizes:
    """Step 2: redistribute trailing stages to satisfy Eq. (1) prefixes.

    Greedy max-fill: stage ``i+1+t`` takes as many units as keep the
    cumulative trailing load within ``(t+1) * b_master``; the surplus flows
    to the last stage.  Every stage keeps at least one unit.  Returns the
    input unchanged when there is nothing after the master.
    """
    n = len(sizes)
    trailing = n - 1 - master
    if trailing <= 0:
        return sizes
    times = space.stage_times(sizes)
    b_master = times.bwd[master]
    first_unit = sum(sizes[:master + 1])
    unit_count = space.num_units - first_unit
    new_tail: List[int] = []
    pos = first_unit
    cum = 0.0
    for t in range(trailing - 1):
        stages_left = trailing - 1 - t
        max_take = unit_count - (pos - first_unit) - stages_left
        take = 0
        while take < max_take and cum + space.weights[pos + take] <= (t + 1) * b_master:
            cum += space.weights[pos + take]
            take += 1
        if take == 0:
            # Best effort: a stage cannot be empty.
            cum += space.weights[pos]
            take = 1
        new_tail.append(take)
        pos += take
    new_tail.append(unit_count - (pos - first_unit))
    return tuple(sizes[:master + 1]) + tuple(new_tail)


def _shift_candidates(
    sizes: Sizes, master: int, space: _UnitSpace
) -> List[Sizes]:
    """Step 3: master-shift candidates, with and without Alg. 1 rebalance."""
    n = len(sizes)
    out: List[Sizes] = []
    if master > 0 and sizes[master] >= 2:
        # First unit of the master joins the previous stage.
        plain = list(sizes)
        plain[master - 1] += 1
        plain[master] -= 1
        out.append(tuple(plain))
        # Rebalance the enlarged prefix (stages 0..master-1) with Alg. 1.
        prefix_units = sum(sizes[:master]) + 1
        rebalanced = space.balance_table(n).sizes(master, prefix_units)
        out.append(tuple(rebalanced) + (sizes[master] - 1,) + tuple(sizes[master + 1:]))
    if 0 < master < n - 1 and sizes[master] >= 2:
        # Last unit of the master joins the next stage.
        plain = list(sizes)
        plain[master] -= 1
        plain[master + 1] += 1
        out.append(tuple(plain))
        # Rebalance stages 0..master (minus the moved unit) with Alg. 1.
        prefix_units = sum(sizes[:master + 1]) - 1
        rebalanced = space.balance_table(n).sizes(master + 1, prefix_units)
        out.append(
            tuple(rebalanced) + (sizes[master + 1] + 1,) + tuple(sizes[master + 2:])
        )
    return out


def _memory_repair(
    sizes: Sizes,
    space: _UnitSpace,
    num_micro_batches: int,
    memory_cap: float,
) -> Optional[Sizes]:
    """Shift units off memory-violating stages until the scheme fits."""
    current = list(sizes)
    for _ in range(space.num_units):
        peaks = space.stage_memory(tuple(current), num_micro_batches)
        worst = max(range(len(peaks)), key=lambda s: peaks[s])
        if peaks[worst] <= memory_cap:
            return tuple(current)
        if current[worst] <= 1:
            return None
        neighbours = [
            s for s in (worst - 1, worst + 1)
            if 0 <= s < len(current) and peaks[s] < peaks[worst]
        ]
        if not neighbours:
            return None
        target = min(neighbours, key=lambda s: peaks[s])
        current[worst] -= 1
        current[target] += 1
    return None


def plan_partition(
    profile: ModelProfile,
    num_stages: int,
    num_micro_batches: int,
    *,
    granularity: str = "sublayer",
    comm_mode: str = "paper",
    cooldown_adjust: bool = True,
    max_evaluations: int = 512,
    keep_history: bool = False,
    memory_cap: Optional[float] = None,
    sim_cache: Optional[SimCache] = None,
    robust: Optional[RobustObjective] = None,
    jobs: Optional[int] = None,
    cache=None,
    telemetry=None,
) -> PlannerResult:
    """Run the AutoPipe Planner and return the best partition found.

    ``granularity="layer"`` runs the identical search over whole-layer
    units (the ablation of Fig. 3's sub-layer split);
    ``cooldown_adjust=False`` disables step 2 (Eq. 1 ablation).
    ``memory_cap`` (bytes per device) makes the search memory-aware: a
    scheme with any stage above the cap can still guide the heuristic but
    can never be returned as the result.  Raises ``RuntimeError`` when no
    evaluated scheme fits the cap.
    ``sim_cache`` shares simulator results across planning calls (sweeps);
    it changes neither the returned partition nor the reported
    ``evaluations`` — only how many simulations actually run.
    ``robust`` switches the selection objective from the nominal
    iteration time to a :class:`~repro.robustness.evaluate.RobustObjective`
    — the configured statistic (mean/P95/max) of the candidate's
    simulated iteration time over ``K`` seeded perturbation draws.  The
    draws are sampled once per call, so every candidate is compared
    under the same scenarios; each considered candidate costs one extra
    batched ``K``-row relaxation.  The *search moves* are still driven
    by the nominal simulations (master stage, cooldown adjust), so the
    explored neighbourhood is unchanged — only the winner selection is.
    The winning value is reported as ``PlannerResult.robust_value``.
    ``jobs`` (default: the process-wide ``--plan-jobs`` setting) hands
    each expansion's master-shift wave to a
    :class:`~repro.core.parallel_search.CandidatePool` of worker
    processes; the wave results are consumed in the serial loop's order,
    so the returned plan, evaluation count and history are bit-identical
    at any job count.  Honest caveat:
    at heuristic-search scale — tens of sub-millisecond simulations —
    process fan-out is parity-to-slower; the flag exists for API
    uniformity with the oracle, where the same ``--plan-jobs`` setting
    is a real win.  ``cache`` is a persistent
    :class:`~repro.core.plan_cache.PlanCache` (default: the process-wide
    ``--plan-cache-dir`` cache, off when unset; ``False`` forces it off
    for one call): a warm hit replays the stored plan without running
    any simulation; the key covers the profile content and every search
    knob except ``jobs``/``sim_cache``, which cannot change the result.
    ``telemetry`` selects the :mod:`repro.obs` registry this call records
    spans/counters into: ``None`` uses the process-wide registry (no-op
    when none is installed), ``False`` forces telemetry off for this
    call, a :class:`~repro.obs.Telemetry` records into it, and a path
    writes a full sink directory (events.jsonl / counters.json /
    trace.json / summary.txt) when the call completes.  Telemetry only
    reads clocks and counters — the returned plan, evaluation count and
    history are bit-identical with it on or off (property-tested).
    """
    tel, sink_dir = _obs.resolve_telemetry(telemetry)
    if tel is None:
        if telemetry is False and _obs.active():
            with _obs.disabled():
                return _plan_impl(
                    profile, num_stages, num_micro_batches,
                    granularity=granularity, comm_mode=comm_mode,
                    cooldown_adjust=cooldown_adjust,
                    max_evaluations=max_evaluations,
                    keep_history=keep_history,
                    memory_cap=memory_cap, sim_cache=sim_cache,
                    robust=robust, jobs=jobs,
                    cache=cache,
                )
        return _plan_impl(
            profile, num_stages, num_micro_batches,
            granularity=granularity, comm_mode=comm_mode,
            cooldown_adjust=cooldown_adjust,
            max_evaluations=max_evaluations, keep_history=keep_history,
            memory_cap=memory_cap, sim_cache=sim_cache,
            robust=robust, jobs=jobs, cache=cache,
        )
    with _obs.session(tel):
        t0 = tel.clock()
        result = _plan_impl(
            profile, num_stages, num_micro_batches,
            granularity=granularity, comm_mode=comm_mode,
            cooldown_adjust=cooldown_adjust,
            max_evaluations=max_evaluations, keep_history=keep_history,
            memory_cap=memory_cap, sim_cache=sim_cache,
            robust=robust, jobs=jobs, cache=cache,
        )
        tel.record_since(
            "planner.plan", t0, depth=num_stages, m=num_micro_batches,
            granularity=granularity,
        )
        # Counters fold from the result's own fields, so the registry
        # and the PlannerResult can never disagree.
        tel.add("planner.plans", 1)
        tel.add("planner.evaluations", result.evaluations)
        tel.add("planner.search_seconds", result.search_seconds)
        tel.add("planner.incumbent_updates", result.incumbent_updates)
    if sink_dir is not None:
        tel.write(sink_dir)
    return result


def _plan_impl(
    profile: ModelProfile,
    num_stages: int,
    num_micro_batches: int,
    *,
    granularity: str,
    comm_mode: str,
    cooldown_adjust: bool,
    max_evaluations: int,
    keep_history: bool,
    memory_cap: Optional[float],
    sim_cache: Optional[SimCache],
    robust: Optional[RobustObjective],
    jobs: Optional[int],
    cache,
) -> PlannerResult:
    """The planner search body; ``plan_partition`` wraps it in telemetry."""
    from repro.core.parallel_search import CandidatePool, resolve_plan_jobs
    from repro.core.plan_cache import resolve_plan_cache

    jobs = resolve_plan_jobs(jobs)
    plan_store = resolve_plan_cache(cache)
    store_key = None
    if plan_store is not None:
        store_key = plan_store.planner_key(
            profile, num_stages, num_micro_batches,
            granularity=granularity, comm_mode=comm_mode,
            cooldown_adjust=cooldown_adjust,
            max_evaluations=max_evaluations, keep_history=keep_history,
            memory_cap=memory_cap, robust=repr(robust),
        )
        stored = plan_store.load(store_key, expect=PlannerResult)
        if stored is not None:
            _obs.add("planner.plan_cache.hits")
            return stored
        _obs.add("planner.plan_cache.misses")

    tel = _obs.current()
    sim_hits0 = sim_cache.hits if sim_cache is not None else 0
    sim_misses0 = sim_cache.misses if sim_cache is not None else 0
    t0 = _time.perf_counter()
    space = _UnitSpace(profile, granularity)
    if num_stages > space.num_units:
        raise ValueError(
            f"{num_stages} stages exceed {space.num_units} "
            f"{granularity}-granularity units"
        )

    scheme_cache: Dict[Sizes, SimResult] = {}
    history: List[Tuple[Sizes, float]] = []
    feasible: Dict[Sizes, bool] = {}

    def fits(sizes: Sizes) -> bool:
        if memory_cap is None:
            return True
        cached = feasible.get(sizes)
        if cached is None:
            cached = all(
                p <= memory_cap
                for p in space.stage_memory(sizes, num_micro_batches)
            )
            feasible[sizes] = cached
        return cached

    def evaluate(sizes: Sizes) -> SimResult:
        sim = scheme_cache.get(sizes)
        if sim is None:
            times = space.stage_times(sizes)
            if sim_cache is not None:
                sim = sim_cache.simulate(times, num_micro_batches, comm_mode)
            else:
                sim = PipelineSim(
                    times, num_micro_batches, comm_mode=comm_mode
                ).run()
            scheme_cache[sizes] = sim
            if keep_history:
                history.append((sizes, sim.iteration_time))
        return sim

    seed = tuple(space.balance_table(num_stages).sizes(num_stages))
    best_sizes: Optional[Sizes] = None
    best_sim: Optional[SimResult] = None
    best_value: Optional[float] = None

    # Robust mode: one factor set drawn up front, one batched K-row
    # relaxation per considered candidate, memoised by sizes.  Nominal
    # mode keeps the original objective (the nominal iteration time).
    factors = robust.factors(num_stages) if robust is not None else None
    robust_vals: Dict[Sizes, float] = {}

    def objective(sizes: Sizes, sim: SimResult) -> float:
        if factors is None or robust is None:
            return sim.iteration_time
        val = robust_vals.get(sizes)
        if val is None:
            val = robust_objective_value(
                sim.stage_times, num_micro_batches, factors,
                robust.statistic, comm_mode=comm_mode,
            )
            robust_vals[sizes] = val
        return val

    incumbent_updates = 0

    def consider(sizes: Sizes, sim: SimResult) -> None:
        nonlocal best_sizes, best_sim, best_value, incumbent_updates
        if not fits(sizes):
            return
        value = objective(sizes, sim)
        if best_value is None or value < best_value:
            best_sizes, best_sim, best_value = sizes, sim, value
            incumbent_updates += 1

    pool = CandidatePool(jobs) if jobs > 1 else None

    def prefetch(cands: List[Sizes]) -> None:
        """Evaluate one master-shift wave's misses concurrently.

        Inserts results into ``scheme_cache`` (and the shared
        ``sim_cache``) in the serial loop's first-occurrence order, so
        the loop's subsequent ``evaluate`` calls hit the memo and the
        plan, evaluation count and history are bit-identical to the
        serial search — the scalar simulation is pure, so where it runs
        cannot change its result.
        """
        if pool is None:
            return
        wave: List[Tuple[Sizes, StageTimes]] = []
        for cand in dict.fromkeys(cands):
            if cand in scheme_cache:
                continue
            times = space.stage_times(cand)
            if sim_cache is not None and (
                times.fwd, times.bwd, times.comm,
                num_micro_batches, comm_mode,
            ) in sim_cache._data:
                continue
            wave.append((cand, times))
        if len(wave) < 2:
            return
        sims = pool.evaluate(
            [t for _, t in wave], num_micro_batches, comm_mode
        )
        for (cand, times), sim in zip(wave, sims):
            if sim_cache is not None:
                sim = sim_cache.simulate(
                    times, num_micro_batches, comm_mode,
                    runner=lambda s=sim: s,
                )
            scheme_cache[cand] = sim
            if keep_history:
                history.append((cand, sim.iteration_time))

    if tel is not None:
        t_seed = tel.clock()
        seed_sim = evaluate(seed)
        tel.record_since("planner.seed", t_seed, depth=num_stages)
    else:
        seed_sim = evaluate(seed)
    consider(seed, seed_sim)

    queue: Deque[Sizes] = deque([seed])
    enqueued = {seed}
    if memory_cap is not None and not fits(seed):
        # Time-balance alone may overload a stage (typically the loss
        # head's); seed a second search trajectory from a memory-repaired
        # variant so a feasible optimum is always reachable.
        repaired = _memory_repair(
            seed, space, num_micro_batches, memory_cap
        )
        if repaired is not None and repaired not in enqueued:
            consider(repaired, evaluate(repaired))
            queue.append(repaired)
            enqueued.add(repaired)
    def expand(sizes: Sizes) -> None:
        """One master-shift expansion (the former loop body, verbatim)."""
        sim = evaluate(sizes)
        master = sim.master_stage

        if cooldown_adjust:
            adjusted = _cooldown_adjust(sizes, master, space)
            if adjusted != sizes:
                adj_sim = evaluate(adjusted)
                consider(adjusted, adj_sim)
                # Paper: proceed to step 3 with the adjusted scheme
                # either way.
                sizes, sim = adjusted, adj_sim
                master = sim.master_stage

        consider(sizes, sim)
        if master == 0:
            return
        cands = _shift_candidates(sizes, master, space)
        prefetch(cands)
        for cand in cands:
            if cand in enqueued:
                continue
            cand_sim = evaluate(cand)
            consider(cand, cand_sim)
            if cand_sim.master_stage <= master:
                queue.append(cand)
                enqueued.add(cand)

    try:
        while queue and len(scheme_cache) < max_evaluations:
            sizes = queue.popleft()
            if tel is not None:
                t_it = tel.clock()
                expand(sizes)
                tel.record_since("planner.expand", t_it)
            else:
                expand(sizes)
    finally:
        if pool is not None:
            pool.close()

    if best_sizes is None or best_sim is None:
        raise RuntimeError(
            f"no evaluated partition fits the {memory_cap / 2**30:.1f} GiB "
            f"memory cap at depth {num_stages}"
        )
    elapsed = _time.perf_counter() - t0
    if tel is not None and sim_cache is not None:
        tel.add("planner.sim_cache.hits", sim_cache.hits - sim_hits0)
        tel.add("planner.sim_cache.misses", sim_cache.misses - sim_misses0)
    result = PlannerResult(
        partition=space.to_partition(best_sizes),
        sim=best_sim,
        evaluations=len(scheme_cache),
        search_seconds=elapsed,
        granularity=granularity,
        history=tuple(history),
        robust_value=best_value if factors is not None else None,
        jobs=jobs if pool is not None and pool.active else 1,
        incumbent_updates=incumbent_updates,
    )
    if plan_store is not None and store_key is not None:
        plan_store.store(store_key, result)
    return result
