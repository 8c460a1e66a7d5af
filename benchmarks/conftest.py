"""Benchmark harness conventions.

Each ``test_bench_*`` module regenerates one table or figure of the paper:
the benchmark measures the end-to-end experiment (planning + DES execution)
and the rendered table is printed so ``pytest benchmarks/ --benchmark-only
-s`` reproduces the evaluation section's numbers.
"""

from __future__ import annotations

import time

from repro.config import ModelConfig

#: 12 layers -> 27 blocks: deep enough that depth-8/10 searches have
#: hundreds of thousands to millions of candidates, small enough to run
#: in CI seconds.
TINY12 = ModelConfig(
    name="tiny12", num_layers=12, hidden_size=256, num_heads=4,
    seq_length=128, vocab_size=8000,
)


def _best_of(fn, reps: int = 3) -> float:
    """Best wall clock of ``reps`` calls of ``fn``, in seconds."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_and_print(benchmark, fn, *args, **kwargs):
    """Run an experiment once under the benchmark clock and print it."""
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                rounds=1, iterations=1)
    if hasattr(result, "render"):
        print()
        print(result.render())
    return result
