"""Fig. 10 — iteration time vs pipeline depth.

Setup: micro-batch count fixed to twice the pipeline depth; micro-batch
size 4 for the GPT-2 models and 16 for BERT-large.  Megatron-LM requires
the depth to divide the layer count, so GPT-2 762M (36 layers) runs a
9-stage pipeline where the others run 8 (exactly the paper's caveat).

Expected shape: AutoPipe's advantage grows with depth (up to ~1.3x);
the Slicer alone *hurts* at depth 2 and helps at deeper pipelines.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.config import ModelConfig
from repro.experiments.common import (
    ExperimentResult,
    MethodResult,
    make_profile,
    run_cells,
    run_method,
)
from repro.models.zoo import BERT_LARGE, GPT2_345M, GPT2_762M

METHODS = ("megatron", "slicer", "planner", "autopipe")

#: (model, micro-batch size, stage counts) — 762M substitutes 9 for 8.
CONFIGS: Tuple[Tuple[ModelConfig, int, Tuple[int, ...]], ...] = (
    (GPT2_345M, 4, (2, 4, 8, 12)),
    (GPT2_762M, 4, (2, 4, 9, 12)),
    (BERT_LARGE, 16, (2, 4, 8, 12)),
)


def run_point(
    model: ModelConfig, micro_batch_size: int, num_stages: int
) -> Dict[str, MethodResult]:
    m = 2 * num_stages
    profile = make_profile(model, micro_batch_size, m)
    return {
        method: run_method(method, profile, num_stages, m)
        for method in METHODS
    }


def run(
    configs: Sequence[Tuple[ModelConfig, int, Tuple[int, ...]]] = CONFIGS,
) -> ExperimentResult:
    result = ExperimentResult(
        name="Fig 10: iteration time (ms) vs pipeline depth "
             "(micro-batches = 2 x depth)",
        headers=["model", "mbs", "stages", *METHODS, "autopipe speedup"],
    )
    cells = [
        (model, mbs, stages)
        for model, mbs, stage_list in configs
        for stages in stage_list
    ]
    points = run_cells(run_point, cells)
    for (model, mbs, stages), point in zip(cells, points):
        row: List[object] = [model.name, mbs, stages]
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
