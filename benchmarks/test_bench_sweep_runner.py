"""Bench: the Table III planner sweep through the SweepRunner.

Times the full Table III sweep three ways — inline and uncached, into a
cold on-disk cache, and from the warm cache — asserting all three
render the identical table and that the warm pass is served entirely
from disk.  Wall clocks go to stdout.
"""

from __future__ import annotations

import time

from repro.experiments import table3
from repro.experiments.runner import SweepRunner


def _timed_run(runner: SweepRunner):
    t0 = time.perf_counter()
    result = table3.run(runner=runner)
    return result, time.perf_counter() - t0


def test_bench_table3_sweep_runner(benchmark, tmp_path):
    inline, inline_s = _timed_run(SweepRunner())

    cache_dir = tmp_path / "sweep-cache"
    cold_runner = SweepRunner(cache_dir=cache_dir)
    cold, cold_s = _timed_run(cold_runner)
    warm_runner = SweepRunner(cache_dir=cache_dir)
    warm = benchmark.pedantic(
        table3.run, kwargs={"runner": warm_runner}, rounds=1, iterations=1
    )

    # All execution paths must produce the identical table.
    assert cold.render() == inline.render()
    assert warm.render() == inline.render()
    # The warm pass is pure cache: every cell served from disk.
    assert warm_runner.cache_misses == 0
    assert warm_runner.cache_hits == cold_runner.cache_misses > 0

    print()
    print(f"table3 sweep  inline         : {inline_s * 1e3:8.1f} ms")
    print(f"table3 sweep  cold disk cache: {cold_s * 1e3:8.1f} ms")
    print(f"table3 sweep  warm cache hits: {warm_runner.cache_hits}")
