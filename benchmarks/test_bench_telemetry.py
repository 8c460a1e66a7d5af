"""Telemetry overhead bench: the disabled path must stay under 2%.

Two claims back the observability layer's contract on the depth-8
oracle bench:

* **Bit-identity** — the search run with a recording registry returns
  the identical partition, iteration time and evaluation count as the
  bare run (asserted here on the real workload; the per-mode property
  coverage lives in ``tests/obs/test_bitidentity.py``).
* **Disabled overhead < 2%** — with no registry installed every probe
  is a pointer compare (or a shared no-op span).  The guard microbenches
  the disabled probes (``current()`` + guard, no-op ``span()``,
  module-level ``add()``), multiplies by a generous estimate of how many
  probes the workload executes (every event and counter a recording run
  produces), and requires that total to stay under 2% of the search's
  wall clock.

The *enabled* overhead (recording registry installed) is measured and
printed but not guarded — it is allowed to cost what it costs; only the
always-on price of having the instrumentation in the code is
contractual.
"""

from __future__ import annotations

import time

from benchmarks.conftest import TINY12, _best_of, run_and_print
from repro import obs
from repro.config import TrainConfig
from repro.core.exhaustive import exhaustive_partition
from repro.experiments.common import ExperimentResult
from repro.hardware.device import DEFAULT_CLUSTER_HW
from repro.profiling import profile_model

#: the contractual ceiling on the disabled-path cost.
MAX_DISABLED_OVERHEAD = 0.02


def _disabled_probe_seconds(iterations: int = 200_000) -> float:
    """Wall cost of one disabled probe *bundle* (worst case per site).

    Each loop pays for all three disabled fast paths at once — a
    ``current()`` read plus ``None`` guard, a no-op ``span()`` context,
    and a module-level ``add()`` — so the per-probe figure is an upper
    bound on any single instrumentation site.
    """
    assert obs.current() is None, "probe microbench needs telemetry off"
    t0 = time.perf_counter()
    for _ in range(iterations):
        tel = obs.current()
        if tel is not None:  # the hot-loop guard shape
            raise AssertionError
        with obs.span("bench.noop"):
            pass
        obs.add("bench.noop")
    return (time.perf_counter() - t0) / iterations


def run_telemetry_overhead(depth: int = 8, m: int = 32, gbs: int = 128):
    profile = profile_model(
        TINY12, DEFAULT_CLUSTER_HW,
        TrainConfig(micro_batch_size=4, global_batch_size=gbs),
    )

    bare = exhaustive_partition(profile, depth, m, max_evaluations=None)
    def recorded_search(tel):
        with obs.session(tel):
            return exhaustive_partition(
                profile, depth, m, max_evaluations=None,
            )

    probe_tel = obs.Telemetry()
    recorded = recorded_search(probe_tel)
    # Bit-identity on the real workload.
    assert recorded.partition.stages == bare.partition.stages
    assert recorded.iteration_time == bare.iteration_time
    assert recorded.evaluations == bare.evaluations

    t_off = _best_of(lambda: exhaustive_partition(
        profile, depth, m, max_evaluations=None,
    ))
    t_on = _best_of(lambda: recorded_search(obs.Telemetry()))

    # Probe executions in one run: every recorded event came from one
    # guarded site, every counter from one add() — double it for slack
    # (guards that evaluated without recording).
    probes = 2 * (len(probe_tel.events) + len(probe_tel.counters))
    probe_cost = _disabled_probe_seconds()
    disabled_overhead = probe_cost * probes / t_off
    enabled_overhead = t_on / t_off - 1.0

    result = ExperimentResult(
        name=f"Telemetry overhead (depth {depth}, m={m})",
        headers=["search (ms)", "recording (ms)", "events", "probes",
                 "disabled overhead", "enabled overhead"],
    )
    result.rows.append([
        f"{t_off * 1e3:.1f}", f"{t_on * 1e3:.1f}",
        len(probe_tel.events), probes,
        f"{disabled_overhead * 100:.3f}%", f"{enabled_overhead * 100:.1f}%",
    ])
    result.meta["disabled_overhead"] = disabled_overhead
    result.meta["enabled_overhead"] = enabled_overhead
    return result


def test_bench_telemetry_overhead(benchmark):
    result = run_and_print(benchmark, run_telemetry_overhead)
    # The contractual guard: instrumentation left in the code costs the
    # uninstrumented user under 2% of the depth-8 oracle search.
    assert result.meta["disabled_overhead"] < MAX_DISABLED_OVERHEAD
