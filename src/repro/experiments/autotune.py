"""Cluster-wide joint autotune: (dp x pp x slice-count) end to end.

AutoPipe's shipping configuration rule picks the shallowest
memory-feasible pipeline and trusts Algorithm 2's slice count; BaPipe
and Luo et al.'s pipeline planner instead *search* the cluster
configuration space.  This experiment runs
:func:`repro.core.strategy.autotune_config` — every batch-compatible
(dp, pp) layout planned through the exact oracle or the heuristic
planner, then every admissible Slicer count executed on the DES — and
reports one row per layout: its best slice count, Algorithm 2's answer
for comparison, and the executed iteration time, with the cluster-wide
winner marked.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.config import TrainConfig
from repro.core.strategy import AutotuneCandidate, autotune_config
from repro.experiments.common import ExperimentResult
from repro.hardware.device import DEFAULT_CLUSTER_HW
from repro.models.zoo import GPT2_345M
from repro.profiling import profile_model

MODEL = GPT2_345M
MICRO_BATCH_SIZE = 4
GLOBAL_BATCH_SIZE = 128
GPU_COUNTS = (4, 8)


def run(gpu_counts: Sequence[int] = GPU_COUNTS) -> ExperimentResult:
    """One row per (gpus, layout): its best slice variant."""
    result = ExperimentResult(
        name="Autotune: joint (dp x pp x slices) search "
             f"({MODEL.name}, mbs={MICRO_BATCH_SIZE}, "
             f"Gbs={GLOBAL_BATCH_SIZE}) — ms per iteration",
        headers=[
            "gpus", "layout", "planner", "m", "slices*", "alg2",
            "startup (ms)", "iter (ms)", "vs best", "chosen",
        ],
    )
    train = TrainConfig(
        micro_batch_size=MICRO_BATCH_SIZE,
        global_batch_size=GLOBAL_BATCH_SIZE,
    )
    profile = profile_model(MODEL, DEFAULT_CLUSTER_HW, train)
    best_meta: Dict[str, object] = {}
    for gpus in gpu_counts:
        tuned = autotune_config(profile, gpus)
        per_layout: Dict[Tuple[int, int], List[AutotuneCandidate]] = {}
        for cand in tuned.candidates:
            key = (cand.layout.data_parallel, cand.layout.pipeline_stages)
            per_layout.setdefault(key, []).append(cand)
        for key, cands in sorted(per_layout.items()):
            ok = [c for c in cands if c.ok]
            if not ok:
                layout = cands[0].layout
                result.rows.append([
                    gpus, str(layout), "-", layout.micro_batches(train),
                    "-", "-", "-", cands[0].status, "-", "",
                ])
                continue
            top = min(
                ok, key=lambda c: (c.iteration_seconds, c.slice_count)
            )
            chosen = (
                top.layout == tuned.best.layout
                and top.slice_count == tuned.best.slice_count
            )
            result.rows.append([
                gpus, str(top.layout), top.planner,
                top.layout.micro_batches(train),
                top.slice_count, top.algorithm2_slices,
                round(top.startup_seconds * 1e3, 2),
                round(top.iteration_seconds * 1e3, 2),
                round(
                    top.iteration_seconds / tuned.best.iteration_seconds, 3
                ),
                "<== best" if chosen else "",
            ])
        best_meta[f"gpus{gpus}"] = {
            "layout": str(tuned.best.layout),
            "slices": tuned.best.slice_count,
            "planner": tuned.best.planner,
            "iteration_ms": tuned.best.iteration_seconds * 1e3,
            "search_seconds": tuned.search_seconds,
        }
    result.meta["model"] = MODEL.name
    result.meta["best"] = best_meta
    return result


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
