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

``_PlannerSearch`` runs one search with one method per step (``seed``,
``cooldown``, ``expand``) and one ``select`` pass that picks the winner.
"""

from __future__ import annotations

import time as _time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro import _checks
from repro.core.analytic_sim import PipelineSim, SimResult
from repro.core.balance_dp import BalanceTable
from repro.core.partition import PartitionScheme, StageTimes, shift_repair
from repro.models.transformer import layer_groups
from repro.obs import stats as _stats
from repro.obs import telemetry as _obs
from repro.parallel.memory_model import MemoryTable, over_cap
from repro.profiling.modelconfig import ModelProfile
from repro.robustness.evaluate import RobustObjective, robust_objective_batch

Sizes = Tuple[int, ...]

#: Units of the search: every block, or every whole transformer layer.
GRANULARITIES = ("sublayer", "layer")

#: cache key: per-stage times, micro-batch count and comm mode.  Every
#: entry is a :class:`PipelineSim` result; the closed-form frontier
#: kernel of :mod:`repro.sim.analytic` is bit-identical to it.
_SimKey = Tuple[Tuple[float, ...], Tuple[float, ...], float, int, str]


class SimCache:
    """Opt-in cross-call memo of :class:`PipelineSim` results.

    One search already memoises its schemes (that memo also defines the
    reported evaluation count); a caller may pass one ``SimCache`` to
    several ``plan_partition`` calls to share simulations between them.
    Across the registered experiments such sharing served about 4% of
    lookups, so no library caller does.  Results are immutable and the
    key captures every simulator input, so sharing is semantics-free:
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
        """Drop every entry and reset the hit/miss counters."""
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

    def simulate(
        self,
        times: StageTimes,
        num_micro_batches: int,
        comm_mode: str,
    ) -> SimResult:
        """Return the memoised simulation of ``times``, running it once."""
        key = (times.fwd, times.bwd, times.comm, num_micro_batches, comm_mode)
        sim = self._data.get(key)
        if sim is not None:
            self.hits += 1
            self._data.move_to_end(key)
            return sim
        self.misses += 1
        sim = PipelineSim(times, num_micro_batches, comm_mode=comm_mode).run()
        self._data[key] = sim
        if len(self._data) > self.max_entries:
            self._data.popitem(last=False)
        return sim


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
    #: every evaluated scheme with its nominal iteration time, in
    #: evaluation order.
    history: Tuple[Tuple[Sizes, float], ...] = field(default=())
    #: the winning scheme's robust objective value (statistic over the
    #: perturbation draws) when planning with ``robust=``; None otherwise.
    robust_value: Optional[float] = None
    #: times the best-so-far scheme changed in the selection replay
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
    """Partition arithmetic over granularity units instead of raw blocks.

    The profile's block times are finite and non-negative, and the space
    checks once that the forward and backward totals are finite.  Every
    stage sum is then finite and non-negative too: rounding is monotone,
    so a left-to-right sum over a run of non-negative units is at most
    the sum over all of them.  :meth:`stage_times` relies on this to
    build candidates without :class:`StageTimes`' checks.
    """

    def __init__(self, profile: ModelProfile, granularity: str) -> None:
        blocks = profile.blocks
        if granularity == "sublayer":
            units = [(i,) for i in range(len(blocks))]
            # ``0 + t``: the bits ``sum`` gives a one-block unit (a
            # ``-0.0`` time becomes ``0.0``), without a generator each.
            self.fwd = [0 + bp.fwd_time for bp in blocks]
            self.bwd = [0 + bp.bwd_time for bp in blocks]
        else:
            units = [tuple(g) for g in layer_groups(
                [bp.block for bp in blocks])]
            self.fwd = [sum(blocks[i].fwd_time for i in u) for u in units]
            self.bwd = [sum(blocks[i].bwd_time for i in u) for u in units]
        _checks.real("total forward time", sum(self.fwd))
        _checks.real("total backward time", sum(self.bwd))
        self.units: List[Tuple[int, ...]] = units
        self.profile = profile
        self.weights = [f + b for f, b in zip(self.fwd, self.bwd)]
        self._balance: Optional[BalanceTable] = None
        self._stage_sums: Dict[Tuple[int, int], Tuple[float, float]] = {}

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

    @cached_property
    def memory(self) -> MemoryTable:
        """Per-unit memory table, built only for ``memory_cap`` plans."""
        return MemoryTable(self.profile, self.units)

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
        """Per-stage sums, each a left-to-right ``sum`` over the stage's
        units (prefix sums would round differently), memoised per
        ``(start, size)``: a search's candidates share most stages (83%
        of lookups hit on the end-to-end ``plan`` stream)."""
        sums = self._stage_sums
        fwd: List[float] = []
        bwd: List[float] = []
        pos = 0
        for size in sizes:
            key = (pos, size)
            pair = sums.get(key)
            if pair is None:
                pair = sums[key] = (
                    sum(self.fwd[pos:pos + size]),
                    sum(self.bwd[pos:pos + size]),
                )
            fwd.append(pair[0])
            bwd.append(pair[1])
            pos += size
        return StageTimes._trusted(
            tuple(fwd), tuple(bwd), self.profile.comm_time
        )


def _cooldown_adjust(
    sizes: Sizes, master: int, b_master: float, space: _UnitSpace
) -> Sizes:
    """Step 2: redistribute trailing stages to satisfy Eq. (1) prefixes.

    Greedy max-fill: stage ``i+1+t`` takes as many units as keep the
    cumulative trailing load within ``(t+1) * b_master``, the master's
    backward time; the surplus flows to the last stage.  Every stage
    keeps at least one unit.  Returns the input unchanged when there is
    nothing after the master.
    """
    n = len(sizes)
    trailing = n - 1 - master
    if trailing <= 0:
        return sizes
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


class _PlannerSearch:
    """One Planner search, with one method per step of Section III-B-2.

    It owns the unit space, the memo of evaluated schemes (in evaluation
    order: its size is ``evaluations``, its items are the ``history``),
    the queue of schemes to expand and the set of schemes ever enqueued.
    """

    def __init__(
        self, profile: ModelProfile, granularity: str, num_stages: int,
        num_micro_batches: int, *, comm_mode: str, cooldown_adjust: bool,
        memory_cap: Optional[float], sim_cache: Optional[SimCache],
    ) -> None:
        self.space = space = _UnitSpace(profile, granularity)
        if num_stages > space.num_units:
            raise ValueError(
                f"{num_stages} stages exceed {space.num_units} "
                f"{granularity}-granularity units"
            )
        self.num_stages = num_stages
        self.num_micro_batches = num_micro_batches
        self.comm_mode = comm_mode
        self.cooldown_adjust = cooldown_adjust
        self.memory_cap = memory_cap
        self.sim_cache = sim_cache
        self.memo: Dict[Sizes, SimResult] = {}
        self.queue: Deque[Sizes] = deque()
        self.enqueued: Set[Sizes] = set()

    def evaluate(self, sizes: Sizes) -> SimResult:
        """The nominal simulation of ``sizes``, run once per search."""
        sim = self.memo.get(sizes)
        if sim is None:
            times = self.space.stage_times(sizes)
            m, mode = self.num_micro_batches, self.comm_mode
            if self.sim_cache is not None:
                sim = self.sim_cache.simulate(times, m, mode)
            else:
                sim = PipelineSim(times, m, comm_mode=mode).run()
            self.memo[sizes] = sim
        return sim

    def peaks(self, sizes: Sizes) -> List[float]:
        return self.space.memory.stage_peaks(sizes, self.num_micro_batches)

    def fits(self, sizes: Sizes) -> bool:
        """Whether every stage of ``sizes`` fits the memory cap, if any."""
        cap = self.memory_cap
        return cap is None or not over_cap(self.peaks(sizes), cap)

    def seed(self) -> None:
        """Step 1: evaluate and enqueue the Algorithm-1 seed.

        Time balance alone may overload a stage (typically the loss
        head's): when the seed breaks the memory cap, a second trajectory
        starts from its memory-repaired variant.
        """
        n = self.num_stages
        seed = tuple(self.space.balance_table(n).sizes(n))
        starts = [seed]
        if not self.fits(seed):
            repaired = shift_repair(
                seed, self.peaks, self.memory_cap, self.space.num_units
            )
            if repaired is not None:  # it fits, so it is not the seed
                starts.append(repaired)
        for sizes in starts:
            self.evaluate(sizes)
            self.queue.append(sizes)
            self.enqueued.add(sizes)

    def cooldown(
        self, sizes: Sizes, sim: SimResult
    ) -> Tuple[Sizes, SimResult]:
        """Step 2: the Eq. (1) fix of the stages after the master.

        Returns the adjusted scheme and its simulation (the input when
        nothing moves).  The paper proceeds to step 3 with the adjusted
        scheme whether or not it is faster.
        """
        master = sim.master_stage
        adjusted = _cooldown_adjust(
            sizes, master, sim.stage_times.bwd[master], self.space
        )
        if adjusted == sizes:
            return sizes, sim
        return adjusted, self.evaluate(adjusted)

    def expand(self, sizes: Sizes) -> None:
        """Step 3 on one queued scheme: the four master-shift candidates.

        The scheme first gets the step-2 fix (unless it is ablated).
        Each candidate not enqueued before is evaluated, and enqueued
        when its master stage is at or before the scheme's.
        """
        sim = self.memo[sizes]
        if self.cooldown_adjust:
            sizes, sim = self.cooldown(sizes, sim)
        master = sim.master_stage
        for cand in _shift_candidates(sizes, master, self.space):
            if cand in self.enqueued:
                continue
            if self.evaluate(cand).master_stage <= master:
                self.queue.append(cand)
                self.enqueued.add(cand)

    def run(
        self, max_evaluations: int, tel: Optional[_obs.Telemetry]
    ) -> None:
        """Seed, then expand queued schemes until the queue is empty or
        the memo holds ``max_evaluations`` schemes (checked between
        expansions, so the last one may carry the count past it)."""
        cache = self.sim_cache
        if cache is not None:
            hits0, misses0 = cache.hits, cache.misses
        t = tel.clock() if tel is not None else 0
        self.seed()
        if tel is not None:
            tel.record_since("planner.seed", t, depth=self.num_stages)
        while self.queue and len(self.memo) < max_evaluations:
            t = tel.clock() if tel is not None else 0
            self.expand(self.queue.popleft())
            if tel is not None:
                tel.record_since("planner.expand", t)
        if tel is not None and cache is not None:
            tel.add("planner.sim_cache.hits", cache.hits - hits0)
            tel.add("planner.sim_cache.misses", cache.misses - misses0)

    def select(
        self, robust: Optional[RobustObjective]
    ) -> Tuple[Sizes, SimResult, float, int]:
        """The winner: one strict ``<`` replay in evaluation order.

        The replay runs over the schemes that fit the memory cap.  Their
        values are the nominal iteration times or, under ``robust``, the
        robust objective from one batched ``(schemes x K)``-row sweep.
        Returns the winner's sizes, simulation and value, and how many
        times the incumbent changed.
        """
        fitting = [(s, sim) for s, sim in self.memo.items() if self.fits(s)]
        if not fitting:
            raise RuntimeError(
                f"no evaluated partition fits the "
                f"{self.memory_cap / 2**30:.1f} GiB memory cap at depth "
                f"{self.num_stages}"
            )
        if robust is None:
            values = [sim.iteration_time for _, sim in fitting]
        else:
            values = robust_objective_batch(
                np.array([sim.stage_times.fwd for _, sim in fitting]),
                np.array([sim.stage_times.bwd for _, sim in fitting]),
                fitting[0][1].stage_times.comm, self.num_micro_batches,
                robust.factors(self.num_stages), robust.statistic,
                comm_mode=self.comm_mode,
            ).tolist()
        best, updates = 0, 1
        for i in range(1, len(values)):
            if values[i] < values[best]:
                best, updates = i, updates + 1
        sizes, sim = fitting[best]
        return sizes, sim, values[best], updates


def plan_partition(
    profile: ModelProfile,
    num_stages: int,
    num_micro_batches: int,
    *,
    granularity: str = "sublayer",
    comm_mode: str = "paper",
    cooldown_adjust: bool = True,
    max_evaluations: int = 512,
    memory_cap: Optional[float] = None,
    sim_cache: Optional[SimCache] = None,
    robust: Optional[RobustObjective] = None,
    jobs: int = 1,
    cache: bool = False,
) -> PlannerResult:
    """Run the AutoPipe Planner and return the best partition found.

    ``granularity="layer"`` runs the identical search over whole-layer
    units (the ablation of Fig. 3's sub-layer split);
    ``cooldown_adjust=False`` disables step 2 (Eq. 1 ablation); it must
    be a bool (``TypeError`` otherwise).
    ``num_stages`` and ``num_micro_batches`` must be integers ``>= 1``
    (``TypeError`` for a bool or non-integral value, ``ValueError``
    below 1).
    ``max_evaluations`` is an integer ``>= 1`` checked like the counts.
    It is a soft cap: the search checks it between expansions, and one
    expansion evaluates up to five new schemes (a cooldown fix and four
    shifts), so ``evaluations`` can exceed it by up to four.
    ``memory_cap`` (bytes per device) makes the search memory-aware: a
    scheme with any stage above the cap can still guide the heuristic but
    can never be returned as the result.  A cap that is no real number (a
    bool included) raises ``TypeError``, a NaN, infinite or non-positive
    one ``ValueError``; a cap that no evaluated scheme fits raises
    ``RuntimeError``.
    ``sim_cache`` shares simulator results across planning calls; it
    changes neither the returned partition nor the reported
    ``evaluations`` — only how many simulations actually run.
    ``robust`` switches the selection objective from the nominal
    iteration time to a :class:`~repro.robustness.evaluate.RobustObjective`
    — the configured statistic (mean/P95/max) of the candidate's
    simulated iteration time over ``K`` seeded perturbation draws.  The
    draws are sampled once per call, so every candidate is compared
    under the same scenarios.  The *search moves* are still driven
    by the nominal simulations (master stage, cooldown adjust), so the
    explored neighbourhood is unchanged — only the winner selection is.
    One replay selects for both objectives: a strict ``<`` pass over the
    fitting schemes in evaluation order (``history``), with robust
    values from one batched ``(schemes x K)``-row sweep.  The winning
    value is reported as ``PlannerResult.robust_value``.
    The search runs in the calling process; ``jobs`` accepts only ``1``
    (any other integer raises ``ValueError``).  ``cache`` accepts only
    ``False`` (any other value raises ``TypeError``): every call searches.
    ``PlannerResult.history`` lists every evaluated scheme with its
    nominal iteration time, in evaluation order.
    When a :mod:`repro.obs` registry is current (``obs.session`` or the
    CLI's ``--telemetry``), the call records a ``planner.plan`` span and
    the ``planner.*`` counters into it.  Telemetry only reads clocks and
    counters — the returned plan, evaluation count and history are
    bit-identical with a registry installed or not (property-tested).
    """
    num_stages = _checks.count("num_stages", num_stages)
    num_micro_batches = _checks.count("num_micro_batches", num_micro_batches)
    max_evaluations = _checks.count("max_evaluations", max_evaluations)
    if memory_cap is not None:
        _checks.real("memory_cap", memory_cap, positive=True)
    _checks.choice("granularity", granularity, GRANULARITIES)
    cooldown_adjust = _checks.flag("cooldown_adjust", cooldown_adjust)
    _checks.removed_keywords(jobs, cache)
    RobustObjective.check(robust)
    tel = _obs.current()
    t0 = tel.clock() if tel is not None else 0
    start = _time.perf_counter()
    search = _PlannerSearch(
        profile, granularity, num_stages, num_micro_batches,
        comm_mode=comm_mode, cooldown_adjust=cooldown_adjust,
        memory_cap=memory_cap, sim_cache=sim_cache,
    )
    search.run(max_evaluations, tel)
    sizes, sim, value, updates = search.select(robust)
    result = PlannerResult(
        partition=search.space.to_partition(sizes),
        sim=sim,
        evaluations=len(search.memo),
        search_seconds=_time.perf_counter() - start,
        granularity=granularity,
        history=tuple((s, r.iteration_time) for s, r in search.memo.items()),
        robust_value=value if robust is not None else None,
        incumbent_updates=updates,
    )
    if tel is not None:
        tel.record_since(
            "planner.plan", t0, depth=num_stages, m=num_micro_batches,
            granularity=granularity,
        )
        # Counters fold from the result's own fields, so the registry
        # and the PlannerResult can never disagree.
        tel.add("planner.plans", 1)
        for name in ("evaluations", "search_seconds", "incumbent_updates"):
            tel.add(f"planner.{name}", getattr(result, name))
    return result
