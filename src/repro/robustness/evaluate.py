"""Batched robustness evaluation: K perturbed sims for the price of one.

A robustness profile of a candidate partition answers "what does the
iteration time look like across ``K`` perturbation draws?".  Evaluating
it naively costs ``K`` scalar :class:`~repro.core.analytic_sim.PipelineSim`
runs; here the ``K`` perturbed stage-time vectors are stacked into one
``(K, n)`` matrix and scored in a single closed-form max-plus frontier
sweep (:func:`repro.sim.analytic.frontier_times`) — no lattice, no graph,
one ``(n, K)`` broadcast recurrence — so a 256-draw profile costs a few
fused numpy passes (benchmarks/test_bench_robustness.py guards the win).
The ``(K,)`` per-draw comm degradations map directly onto the kernel's
vector-comm broadcast.

The oracle's brute-force sweep evaluates whole *chunks* of candidates
under all draws at once (:func:`robust_objective_batch`): ``C``
candidates x ``K`` draws become one ``(C*K, n)`` kernel call.

Everything here is bit-for-bit identical to ``K`` scalar perturbed sims
(tests/robustness/test_perturbation.py property-checks both comm modes;
the kernel itself is property-tested bitwise against ``K`` scalar
:class:`~repro.core.analytic_sim.PipelineSim` runs in
tests/sim/test_analytic.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.analytic_sim import PipelineSim
from repro.core.partition import StageTimes
from repro.obs import telemetry as _obs
from repro.sim.analytic import frontier_times
from repro.robustness.perturbation import (
    PerturbationModel,
    StageFactors,
    draw_factors,
)

#: Supported robust statistics over the per-draw iteration times.
STATISTICS = ("mean", "p95", "max")

#: Kernel rows (candidates x draws) per frontier sweep of
#: :func:`robust_objective_batch`; wider batches are split by candidate.
#: Values are row-independent, so the split is pure memory tuning.
_MAX_ROWS = 16_384


def reduce_statistic(times, statistic: str, axis: Optional[int] = None):
    """Reduce per-draw iteration times to one robust objective value."""
    arr = np.asarray(times, dtype=np.float64)
    if statistic == "mean":
        return np.mean(arr, axis=axis)
    if statistic == "p95":
        return np.quantile(arr, 0.95, axis=axis)
    if statistic == "max":
        return np.max(arr, axis=axis)
    raise ValueError(
        f"unknown statistic {statistic!r} (choose from {STATISTICS})"
    )


@dataclass(frozen=True)
class RobustObjective:
    """A robust planning objective: statistic over seeded perturbation draws.

    Passed to ``plan_partition(robust=...)`` / ``exhaustive_partition(
    robust=...)``: candidates are ranked by ``statistic`` (``"mean"``,
    ``"p95"`` or ``"max"``) of their simulated iteration time over
    ``draws`` deterministic perturbation draws instead of the nominal
    time.  The draws are a pure function of ``(models, num_stages,
    draws, seed)``, so two searches with the same objective see the same
    scenarios.
    """

    models: Tuple[PerturbationModel, ...]
    draws: int = 256
    seed: int = 0
    statistic: str = "p95"

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", tuple(self.models))
        for model in self.models:
            if not isinstance(model, PerturbationModel):
                raise TypeError(
                    f"models must hold PerturbationModel instances, got "
                    f"{type(model).__name__}"
                )
        for name in ("draws", "seed"):
            value = getattr(self, name)
            # bool is an int subclass, but draws=True is a typo, not 1.
            if isinstance(value, bool) or not isinstance(
                value, (int, np.integer)
            ):
                raise TypeError(
                    f"{name} must be an integer, got {value!r}"
                )
        if self.draws < 1:
            raise ValueError(f"draws must be >= 1, got {self.draws}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.statistic not in STATISTICS:
            raise ValueError(
                f"unknown statistic {self.statistic!r} "
                f"(choose from {STATISTICS})"
            )

    @staticmethod
    def check(robust) -> None:
        """Reject a ``robust=`` argument that is neither None nor an
        objective (a bare statistic name such as ``"p95"``, say)."""
        if robust is not None and not isinstance(robust, RobustObjective):
            raise TypeError(
                f"robust must be a RobustObjective or None, got "
                f"{type(robust).__name__} {robust!r}"
            )

    def factors(self, num_stages: int) -> StageFactors:
        """The objective's factor draws for an ``n``-stage pipeline."""
        return draw_factors(self.models, num_stages, self.draws, self.seed)


def robust_iteration_times(
    times: StageTimes,
    num_micro_batches: int,
    factors: StageFactors,
    *,
    comm_mode: str = "paper",
) -> np.ndarray:
    """Iteration time of one candidate under every draw, shape ``(K,)``.

    One closed-form frontier sweep over the ``K`` perturbed stage-time
    vectors — the per-draw comm degradations ride the kernel's ``(K,)``
    vector-comm broadcast.  Values are bitwise what ``K`` scalar
    perturbed :class:`PipelineSim` runs produce (the kernel's contract,
    property-tested in ``tests/sim/test_analytic.py``).
    """
    fwd, bwd, _ = factors.apply(times)
    return frontier_times(
        fwd, bwd, factors.kernel_comm(times.comm), num_micro_batches,
        comm_mode=comm_mode,
    )


def robust_objective_value(
    times: StageTimes,
    num_micro_batches: int,
    factors: StageFactors,
    statistic: str,
    *,
    comm_mode: str = "paper",
) -> float:
    """The robust objective of one candidate (scalar)."""
    draws = robust_iteration_times(
        times, num_micro_batches, factors, comm_mode=comm_mode
    )
    return float(reduce_statistic(draws, statistic))


def robust_objective_batch(
    fwd: np.ndarray,
    bwd: np.ndarray,
    comm: float,
    num_micro_batches: int,
    factors: StageFactors,
    statistic: str,
    *,
    comm_mode: str = "paper",
) -> np.ndarray:
    """Robust objective of ``C`` candidates at once, shape ``(C,)``.

    Stacks the ``C x K`` perturbed vectors into one ``(C*K, n)`` batch:
    candidate ``i``'s draws occupy rows ``i*K .. (i+1)*K - 1``.  Batches
    wider than :data:`_MAX_ROWS` rows are swept in whole-candidate
    slices, bounding peak memory.  Each
    row's entries are bitwise identical to the per-candidate path's
    (``np.repeat``/``np.tile`` copy bits; the multiplies see the same
    operands), so the reduced values match
    :func:`robust_objective_value` exactly.
    """
    fwd = np.ascontiguousarray(fwd, dtype=np.float64)
    bwd = np.ascontiguousarray(bwd, dtype=np.float64)
    if fwd.ndim != 2 or fwd.shape != bwd.shape:
        raise ValueError(
            f"need matching (C, num_stages) matrices, got {fwd.shape} "
            f"and {bwd.shape}"
        )
    num_candidates, n = fwd.shape
    if n != factors.num_stages:
        raise ValueError(
            f"factors cover {factors.num_stages} stages, candidates have {n}"
        )
    k = factors.draws
    tel = _obs.current()
    t0 = tel.clock() if tel is not None else 0
    values = np.empty(num_candidates)
    step = max(1, _MAX_ROWS // k)
    for c0 in range(0, num_candidates, step):
        c1 = min(c0 + step, num_candidates)
        rows = c1 - c0
        pf = np.repeat(fwd[c0:c1], k, axis=0) * np.tile(factors.fwd, (rows, 1))
        pb = np.repeat(bwd[c0:c1], k, axis=0) * np.tile(factors.bwd, (rows, 1))
        per_draw = frontier_times(
            pf, pb, factors.kernel_comm(comm, rows), num_micro_batches,
            comm_mode=comm_mode,
        ).reshape(rows, k)
        values[c0:c1] = reduce_statistic(per_draw, statistic, axis=1)
    if tel is not None:
        tel.record_since(
            "robust.objective_batch", t0,
            candidates=num_candidates, rows=num_candidates * k,
        )
        tel.add("robust.candidates", num_candidates)
        tel.add("robust.draw_sims", num_candidates * k)
    return values


@dataclass(frozen=True)
class RobustnessProfile:
    """Distributional summary of one candidate under perturbation draws."""

    nominal_time: float
    draw_times: np.ndarray  # (K,) per-draw iteration times
    statistic: str

    @property
    def mean(self) -> float:
        return float(np.mean(self.draw_times))

    @property
    def p95(self) -> float:
        return float(np.quantile(self.draw_times, 0.95))

    @property
    def worst(self) -> float:
        return float(np.max(self.draw_times))

    @property
    def value(self) -> float:
        """The profile reduced by its configured statistic."""
        return float(reduce_statistic(self.draw_times, self.statistic))


def robustness_profile(
    times: StageTimes,
    num_micro_batches: int,
    models: Sequence[PerturbationModel],
    *,
    draws: int = 256,
    seed: int = 0,
    statistic: str = "p95",
    comm_mode: str = "paper",
) -> RobustnessProfile:
    """Profile one candidate: nominal time plus ``K`` perturbed times."""
    factors = draw_factors(models, times.num_stages, draws, seed)
    nominal = PipelineSim(
        times, num_micro_batches, comm_mode=comm_mode
    ).run().iteration_time
    draw_times = robust_iteration_times(
        times, num_micro_batches, factors, comm_mode=comm_mode
    )
    return RobustnessProfile(
        nominal_time=nominal, draw_times=draw_times, statistic=statistic
    )
