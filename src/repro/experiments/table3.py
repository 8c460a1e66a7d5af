"""Table III — planner comparison with low memory demand.

GPT-2 345M, micro-batch size 4, on 4 and 16 GPUs, global batch sizes
{128, 256, 512}.  Expected shape: Piper and AutoPipe both choose complete
data parallelism and land within a couple percent of each other; DAPPLE
pipelines anyway (2 stages, heavy replicated tail) and is ~1.5-1.7x worse
on 4 GPUs; on 16 GPUs its plan puts 15 replicas on the second stage,
exceeding the micro-batch size — the runtime-error "-" entry.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.baselines.common import ConfigEvaluation, evaluate_config
from repro.baselines.dapple import plan_dapple
from repro.baselines.piper import plan_piper
from repro.config import ModelConfig, TrainConfig
from repro.core.strategy import autopipe_config
from repro.experiments.common import ExperimentResult, run_cells
from repro.hardware.device import DEFAULT_CLUSTER_HW
from repro.models.zoo import GPT2_345M
from repro.profiling import profile_model

MODEL = GPT2_345M
MICRO_BATCH_SIZE = 4
GPU_COUNTS = (4, 16)
GLOBAL_BATCH_SIZES = (128, 256, 512)

PLANNERS = {
    "D": plan_dapple,
    "P": plan_piper,
    "A": autopipe_config,
}


def run_cell(
    model: ModelConfig,
    micro_batch_size: int,
    num_gpus: int,
    global_batch_size: int,
) -> Dict[str, Optional[ConfigEvaluation]]:
    """Evaluate all three planners on one (gpus, Gbs) cell."""
    train = TrainConfig(
        micro_batch_size=micro_batch_size, global_batch_size=global_batch_size
    )
    profile = profile_model(model, DEFAULT_CLUSTER_HW, train)
    out: Dict[str, Optional[ConfigEvaluation]] = {}
    for key, planner in PLANNERS.items():
        try:
            config = planner(profile, num_gpus, global_batch_size)
        except RuntimeError:
            out[key] = None
            continue
        out[key] = evaluate_config(profile, config, global_batch_size)
    return out


def _cell_text(ev: Optional[ConfigEvaluation]) -> str:
    if ev is None or ev.runtime_error is not None:
        return "-"
    if ev.oom:
        return "OOM"
    return f"{ev.iteration_seconds * 1e3:.1f}"


def run(
    gpu_counts: Sequence[int] = GPU_COUNTS,
    global_batch_sizes: Sequence[int] = GLOBAL_BATCH_SIZES,
) -> ExperimentResult:
    result = ExperimentResult(
        name="Table III: planner comparison, low memory demand "
             f"({MODEL.name}, mbs={MICRO_BATCH_SIZE}) — ms per iteration",
        headers=["gpus", "alg",
                 *[f"Gbs={g}" for g in global_batch_sizes], "plan"],
    )
    specs = [
        (MODEL, MICRO_BATCH_SIZE, gpus, gbs)
        for gpus in gpu_counts for gbs in global_batch_sizes
    ]
    evaluated = run_cells(run_cell, specs)
    by_spec = {
        (spec[2], spec[3]): cell for spec, cell in zip(specs, evaluated)
    }
    for gpus in gpu_counts:
        cells = {gbs: by_spec[(gpus, gbs)] for gbs in global_batch_sizes}
        for key in PLANNERS:
            row: list = [gpus, key]
            note = ""
            for gbs in global_batch_sizes:
                ev = cells[gbs][key]
                row.append(_cell_text(ev))
                if ev is not None:
                    note = ev.config.notes
            row.append(note)
            result.rows.append(row)
    return result


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
