"""Table IV — planner comparison with high memory demand.

GPT-2 345M at micro-batch size 32 and GPT-2 1.3B at micro-batch size 16,
on 4 and 8 GPUs, global batch sizes {512, 1024, 2048}.  Memory forces all
planners to pipeline.  Expected shape: AutoPipe beats Piper by ~1.05-1.18x
(Piper over-pipelines with unbalanced stages); DAPPLE's 2-stage GPT-2 1.3B
plan passes its optimistic memory check but OOMs when executed (the OOM
rows — our reproduction shows this on 8 GPUs; on 4 GPUs DAPPLE's plan
narrowly fits our memory model, a documented deviation).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.config import ModelConfig
from repro.experiments.common import ExperimentResult, run_cells
from repro.experiments.table3 import PLANNERS, _cell_text, run_cell
from repro.models.zoo import GPT2_1_3B, GPT2_345M

#: (model, micro-batch size) rows of the paper's table.
CASES: Tuple[Tuple[ModelConfig, int], ...] = (
    (GPT2_345M, 32),
    (GPT2_1_3B, 16),
)
GPU_COUNTS = (4, 8)
GLOBAL_BATCH_SIZES = (512, 1024, 2048)


def run(
    cases: Sequence[Tuple[ModelConfig, int]] = CASES,
    gpu_counts: Sequence[int] = GPU_COUNTS,
    global_batch_sizes: Sequence[int] = GLOBAL_BATCH_SIZES,
) -> ExperimentResult:
    result = ExperimentResult(
        name="Table IV: planner comparison, high memory demand — ms per iteration",
        headers=["model", "mbs", "gpus", "alg",
                 *[f"Gbs={g}" for g in global_batch_sizes], "plan"],
    )
    specs = [
        (model, mbs, gpus, gbs)
        for model, mbs in cases
        for gpus in gpu_counts
        for gbs in global_batch_sizes
    ]
    evaluated = run_cells(run_cell, specs)
    by_spec = {
        (spec[0].name, spec[1], spec[2], spec[3]): cell
        for spec, cell in zip(specs, evaluated)
    }
    for model, mbs in cases:
        for gpus in gpu_counts:
            cells = {
                gbs: by_spec[(model.name, mbs, gpus, gbs)]
                for gbs in global_batch_sizes
            }
            for key in PLANNERS:
                row: list = [model.name, mbs, gpus, key]
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
