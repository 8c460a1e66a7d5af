"""End-to-end planning benchmark: one command for every metric.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload plan --seed 1 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --workload all --seed 1 --trace 1
    python3 benchmarks/e2e/run.py compare BASE.json HEAD.json

A workload's stream (``workloads.py``) is cut into ``--repeats`` parts.
Each part runs in a fresh child process (``child.py``), strictly one at
a time, as a closed loop with one client and one thread.  Latency,
throughput, quality and success rate pool the queries of all parts;
set-up time and peak memory are medians over the parts' processes.
Times are reference times: wall times scaled by a host-speed probe
sampled all through each process (``probe.py``); the result file holds
the wall-clock values too.
Metric names and units come from ``BENCHMARK.json``.  With ``--workload
all`` the parts go round-robin over the workloads, so a slow phase of
the host hits every workload alike.  ``--trace 1`` runs every part twice,
untraced then traced, and reports the per-layer metrics of the traced
runs plus the tracing overhead.  Every answer is checked (``checks.py``).

A result file (environment, per-part raw values and quartiles, input
properties, checks) is written under ``benchmarks/e2e/out/``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import workloads  # noqa: E402
from layers import add_totals, layer_metrics  # noqa: E402
from workloads import part_slice  # noqa: E402

#: Metric names and units, as ``BENCHMARK.json`` declares them.
SPEC = compare.spec()

#: Metrics that are times, reported in reference time (``probe.py``)
#: and, in the result file, in wall time.
TIMINGS = ("throughput_qps", "latency_p50_ms", "latency_p95_ms", "setup_s")

PARTS = 5
SECONDS = 10.0
#: Wall-clock cap per workload of an invocation; past it the harness
#: stops and exits non-zero.
TIME_CAP_S = 170.0


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of an ascending sequence."""
    pos = (len(sorted_values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def end_to_end(parts: List[Dict[str, Any]], wall: bool = False) -> Dict[str, float]:
    """The end-to-end metrics of one or more parts, pooled; times are
    reference times, or wall times with ``wall``."""
    prefix = "wall_" if wall else ""
    lat = sorted(x for p in parts for x in p[prefix + "latencies_s"])
    log_sum = math.fsum(p["log_ratio_sum"] for p in parts)
    count = sum(p["ratio_count"] for p in parts)
    failed = sum(len(p["raised"]) + len(p["check_failures"]) for p in parts)
    return {
        "success_rate": 1.0 - failed / len(lat),
        "throughput_qps": len(lat) / math.fsum(lat),
        "latency_p50_ms": 1e3 * percentile(lat, 50),
        "latency_p95_ms": 1e3 * percentile(lat, 95),
        "setup_s": statistics.median(p[prefix + "setup_s"] for p in parts),
        "quality_ratio": math.exp(log_sum / count) if count else float("nan"),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in parts),
    }


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles, sample count and the raw per-part values."""
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "n": len(values), "raw": values,
    }


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def spawn(
    workload: str, seed: int, queries: int, part: int, parts: int, *,
    trace: bool, deadline: float, trace_dir: str = "",
) -> Dict[str, Any]:
    """Run one part in a fresh child process and return its result."""
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    timeout = max(1.0, deadline - time.monotonic())
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--queries", str(queries),
        "--part", str(part), "--parts", str(parts),
        "--trace", str(int(trace)),
        "--trace-dir", trace_dir,
        "--spawn-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} part {part} failed (exit {proc.returncode}):\n"
            f"{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def workload_record(
    workload: str, seed: int, queries: int,
    plain: List[Dict[str, Any]], traced: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """Aggregate one workload's parts into its result-file record."""
    pooled = end_to_end(plain)
    per_part = [end_to_end([p]) for p in plain]
    stream = workloads.make_stream(workload, seed, queries)["queries"]
    shares = [
        workloads.repeat_shares(stream[part_slice(queries, k, len(plain))])
        for k in range(len(plain))
    ]
    record: Dict[str, Any] = {
        "queries": queries,
        "parts": len(plain),
        "properties": {
            key: statistics.mean(s[key] for s in shares) for key in shares[0]
        },
        "metrics": {
            m["name"]: {"unit": m["unit"], "better": m["better"],
                        "value": pooled[m["name"]],
                        **summarize([p[m["name"]] for p in per_part])}
            for m in SPEC["end_to_end"]
        },
        "wall": {
            name: value for name, value in end_to_end(plain, wall=True).items()
            if name in TIMINGS
        },
        "probe": [p["probe"] for p in plain],
    }
    raised = [e for p in plain + traced for e in p["raised"]]
    failures = [e for p in plain + traced for e in p["check_failures"]]
    problems = [
        f"part {p['part']}: traced answers differ from untraced"
        for p, t in zip(plain, traced) if p["answers_digest"] != t["answers_digest"]
    ]
    if traced:
        totals = traced[0]["totals"]
        for t in traced[1:]:
            totals = add_totals(totals, t["totals"])
        layers = layer_metrics(totals, workloads.DRAWS)
        # Median over the parts of traced over untraced throughput: each
        # pair runs back to back, so a slow spell of the host skews one
        # pair rather than the whole ratio.
        layers["trace.throughput_ratio"] = statistics.median(
            end_to_end([t])["throughput_qps"] / end_to_end([p])["throughput_qps"]
            for p, t in zip(plain, traced)
        )
        record["layers"] = layers
    attempted = sum(p["queries"] for p in plain + traced)
    record["checks"] = {
        "attempted": attempted,
        "failed": len(raised) + len(failures),
        "error_rate": (len(raised) + len(failures)) / attempted,
        "raised": raised[:20],
        "check_failures": failures[:20],
        "problems": problems,
    }
    return record


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + TIME_CAP_S * len(names)
    environment = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "loadavg_start": list(os.getloadavg()),
        "argv": sys.argv[1:],
    }
    sizes = {
        w: args.queries or workloads.stream_size(w, args.seconds, args.repeats)
        for w in names
    }
    parts = {w: max(1, min(args.repeats, sizes[w])) for w in names}
    plain: Dict[str, List[dict]] = {w: [] for w in names}
    traced: Dict[str, List[dict]] = {w: [] for w in names}
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    try:
        for k in range(max(parts.values())):
            for w in names:
                if k >= parts[w]:
                    continue
                plain[w].append(spawn(
                    w, args.seed, sizes[w], k, parts[w], trace=False, deadline=deadline,
                ))
                if args.trace:
                    trace_dir = str(OUT / f"{w}-seed{args.seed}-trace") if k == 0 else ""
                    traced[w].append(spawn(
                        w, args.seed, sizes[w], k, parts[w], trace=True,
                        deadline=deadline, trace_dir=trace_dir,
                    ))
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded its time cap of {TIME_CAP_S:.0f} s per workload",
              file=sys.stderr)
        return 3

    environment["numpy"] = plain[names[0]][0]["numpy"]
    OUT.mkdir(parents=True, exist_ok=True)
    records = {
        w: workload_record(w, args.seed, sizes[w], plain[w], traced[w]) for w in names
    }
    for w, rec in records.items():
        if "layers" in rec:
            (OUT / f"{w}-seed{args.seed}-trace" / "layers.json").write_text(
                json.dumps(rec["layers"], indent=2) + "\n"
            )
    result_path = OUT / f"{tag}.json"
    result_path.write_text(json.dumps({
        "environment": environment,
        "config": {"seed": args.seed, "seconds": args.seconds,
                   "repeats": args.repeats, "trace": args.trace},
        "workloads": records,
    }, indent=2) + "\n")

    metrics: Dict[str, Dict[str, Any]] = {}
    for w, rec in records.items():
        prefix = "" if len(names) == 1 else f"{w}."
        if args.trace:
            for m in SPEC["per_layer"]:
                metrics[prefix + m["name"]] = {
                    "value": rec["layers"][m["name"]], "unit": m["unit"],
                }
        else:
            for name, m in rec["metrics"].items():
                metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
        print(f"== {w}: {rec['queries']} queries in {rec['parts']} parts, "
              f"error_rate {rec['checks']['error_rate']:.4f}, "
              f"repeated shapes {rec['properties']['shape_repeat_share']:.2f}, "
              f"repeated inputs {rec['properties']['exact_repeat_share']:.2f}")
        for name, m in rec["metrics"].items():
            print(f"   {name:16s} {m['value']:12.4f} {m['unit']:5s} "
                  f"[parts: q1 {m['q1']:.4f}, median {m['median']:.4f}, "
                  f"q3 {m['q3']:.4f}, n={m['n']}]"
                  + (f" wall {rec['wall'][name]:.4f}" if name in rec["wall"] else ""))
        for problem in rec["checks"]["problems"]:
            print(f"   PROBLEM: {problem}")
        for index, reason in rec["checks"]["raised"] + rec["checks"]["check_failures"]:
            print(f"   FAILED query {index}: {reason}")
    print(f"result file: {result_path.relative_to(ROOT)}")
    attempted = sum(r["checks"]["attempted"] for r in records.values())
    failed = sum(r["checks"]["failed"] for r in records.values())
    correct = failed == 0 and not any(r["checks"]["problems"] for r in records.values())
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    if argv[:1] == ["run"]:
        argv = argv[1:]
    parser = argparse.ArgumentParser(
        description="End-to-end planning benchmark (see benchmarks/e2e/README.md)."
    )
    parser.add_argument("--workload", default="all",
                        choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SECONDS,
                        help="reference seconds of queries per workload, all parts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=PARTS,
                        help="parts per workload, one process each")
    parser.add_argument("--queries", type=int, default=0,
                        help="stream size override (smoke tests)")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
