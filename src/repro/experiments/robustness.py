"""Robustness experiment: nominal vs robust planning under perturbations.

Extension beyond the paper's evaluation.  AutoPipe's planner optimises
the *nominal* simulated iteration time; this experiment asks what that
choice costs when the cluster misbehaves.  For each (model, scenario)
cell it

1. plans nominally and with a robust P95 objective
   (``plan_partition(robust=RobustObjective(...))``, seeded perturbation
   draws from :mod:`repro.robustness`),
2. re-evaluates *both* plans under a held-out set of draws (a different
   seed than the one the robust plan optimised against), and
3. reports the nominal plan's P95 regret relative to the robust plan and
   the robust plan's P95 speedup.

Scenarios cover the three perturbation models: multiplicative
stage-cost noise at several sigmas, a random-stage straggler, and
comm-bandwidth degradation.  Cells are module-level functions run
through :func:`~repro.experiments.common.run_cells`, and each cell's
2 x 256-draw evaluation goes through the batched fast path — no
per-draw Python loop.

``benchmarks/test_bench_robustness.py`` prints the rows and guards the
headline claim: under 10% stage-cost noise on at least one paper model,
the robust plan's held-out P95 strictly beats the nominal plan's.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.planner import plan_partition
from repro.experiments.common import ExperimentResult, make_profile, run_cells
from repro.models.zoo import BERT_LARGE, GPT2_345M
from repro.robustness import (
    CommDegradation,
    PerturbationModel,
    RobustObjective,
    StageCostNoise,
    Straggler,
    draw_factors,
    robust_iteration_times,
)
from repro.runtime.metrics import p95, p95_regret, robust_speedup

MICRO_BATCH_SIZE = 4
DRAWS = 256
STATISTIC = "p95"
#: the robust objective plans against this seed...
PLAN_SEED = 0
#: ...and both plans are scored on this held-out one.
EVAL_SEED = 1

MODELS = {m.name: m for m in (GPT2_345M, BERT_LARGE)}

#: (model, num_stages, num_micro_batches) rows of the sweep.
CONFIGS: Tuple[Tuple[str, int, int], ...] = (
    (GPT2_345M.name, 4, 8),
    (BERT_LARGE.name, 6, 12),
)

#: scenario name -> perturbation model stack.
SCENARIOS: Dict[str, Tuple[PerturbationModel, ...]] = {
    "noise-5%": (StageCostNoise(0.05),),
    "noise-10%": (StageCostNoise(0.10),),
    "noise-20%": (StageCostNoise(0.20),),
    "straggler-1.5x": (Straggler(1.5, probability=0.5),),
    "comm-2x": (CommDegradation(2.0, probability=0.5),),
}


def run_cell(
    model_name: str,
    scenario: str,
    num_stages: int,
    num_micro_batches: int,
) -> dict:
    """Plan nominally and robustly, score both on held-out draws."""
    profile = make_profile(
        MODELS[model_name], MICRO_BATCH_SIZE, num_micro_batches
    )
    perturbations = SCENARIOS[scenario]
    objective = RobustObjective(
        perturbations, draws=DRAWS, seed=PLAN_SEED, statistic=STATISTIC
    )
    nominal = plan_partition(profile, num_stages, num_micro_batches)
    robust = plan_partition(
        profile, num_stages, num_micro_batches, robust=objective
    )
    held_out = draw_factors(perturbations, num_stages, DRAWS, EVAL_SEED)
    nominal_draws = robust_iteration_times(
        nominal.sim.stage_times, num_micro_batches, held_out
    )
    robust_draws = robust_iteration_times(
        robust.sim.stage_times, num_micro_batches, held_out
    )
    return {
        "model": model_name,
        "scenario": scenario,
        "num_stages": num_stages,
        "num_micro_batches": num_micro_batches,
        "nominal_sizes": list(nominal.partition.sizes),
        "robust_sizes": list(robust.partition.sizes),
        "plans_differ": nominal.partition.sizes != robust.partition.sizes,
        "nominal_ms": nominal.iteration_time * 1e3,
        "nominal_p95_ms": p95(nominal_draws) * 1e3,
        "robust_p95_ms": p95(robust_draws) * 1e3,
        "nominal_regret": p95_regret(nominal_draws, robust_draws),
        "robust_speedup": robust_speedup(
            nominal_draws, robust_draws, STATISTIC
        ),
    }


def run(
    configs: Sequence[Tuple[str, int, int]] = CONFIGS,
    scenarios: Sequence[str] = tuple(SCENARIOS),
) -> ExperimentResult:
    result = ExperimentResult(
        name=f"Robust planning: nominal vs robust-P95 plans "
             f"({DRAWS} draws, held-out eval seed)",
        headers=["model", "scenario", "nominal (ms)", "nominal P95 (ms)",
                 "robust P95 (ms)", "nominal regret", "robust speedup",
                 "plans differ"],
    )
    cells: List[Tuple] = [
        (model, scenario, stages, m)
        for model, stages, m in configs
        for scenario in scenarios
    ]
    rows = run_cells(run_cell, cells)
    for cell in rows:
        result.rows.append([
            cell["model"],
            cell["scenario"],
            f"{cell['nominal_ms']:.1f}",
            f"{cell['nominal_p95_ms']:.1f}",
            f"{cell['robust_p95_ms']:.1f}",
            f"{cell['nominal_regret'] * 100:+.2f}%",
            f"{cell['robust_speedup']:.4f}x",
            "yes" if cell["plans_differ"] else "no",
        ])
    result.meta["cells"] = rows
    return result


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
