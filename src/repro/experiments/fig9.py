"""Fig. 9 — iteration time vs micro-batch size.

Setup (paper Section IV-B): 4 pipeline stages, 8 micro-batches per
iteration; micro-batch sizes {4, 8, 16, 24, 32}; models GPT-2 345M,
GPT-2 762M and BERT-large; methods Megatron-LM, Slicer, Planner, AutoPipe.
GPT-2 762M hits OOM at micro-batch size 32 (the paper therefore stops at
24); the OOM row is kept so the harness shows the same boundary.

Expected shape: AutoPipe 1.02x-1.12x over Megatron-LM, growing with the
micro-batch size; Planner contributes more than the Slicer at this depth.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.config import ModelConfig
from repro.experiments.common import (
    ExperimentResult,
    MethodResult,
    make_profile,
    run_cells,
    run_method,
)
from repro.models.zoo import BERT_LARGE, GPT2_345M, GPT2_762M

NUM_STAGES = 4
NUM_MICRO_BATCHES = 8
MICRO_BATCH_SIZES = (4, 8, 16, 24, 32)
MODELS = (GPT2_345M, GPT2_762M, BERT_LARGE)
METHODS = ("megatron", "slicer", "planner", "autopipe")


def run_point(
    model: ModelConfig, micro_batch_size: int
) -> Dict[str, MethodResult]:
    """All four methods at one (model, micro-batch size) point."""
    profile = make_profile(model, micro_batch_size, NUM_MICRO_BATCHES)
    return {
        method: run_method(method, profile, NUM_STAGES, NUM_MICRO_BATCHES)
        for method in METHODS
    }


def run(
    models: Sequence[ModelConfig] = MODELS,
    micro_batch_sizes: Sequence[int] = MICRO_BATCH_SIZES,
) -> ExperimentResult:
    result = ExperimentResult(
        name="Fig 9: iteration time (ms) vs micro-batch size "
             f"({NUM_STAGES} stages, {NUM_MICRO_BATCHES} micro-batches)",
        headers=["model", "mbs", *METHODS, "autopipe speedup"],
    )
    cells = [
        (model, mbs) for model in models for mbs in micro_batch_sizes
    ]
    points = run_cells(run_point, cells)
    for (model, mbs), point in zip(cells, points):
        row: List[object] = [model.name, mbs]
        for method in METHODS:
            r = point[method]
            row.append(f"{r.iteration_seconds * 1e3:.1f}" if r.ok else r.status)
        mega, auto = point["megatron"], point["autopipe"]
        if mega.ok and auto.ok:
            row.append(
                f"{mega.iteration_seconds / auto.iteration_seconds:.3f}x"
            )
        else:
            row.append("-")
        result.rows.append(row)
    return result


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
