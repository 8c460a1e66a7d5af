"""One part of one workload's stream, in a fresh process (see ``run.py``).

Set-up runs from the spawn time the parent passes in to the first timed
query: interpreter start, ``import repro``, profiling every model of the
part (``queries.prepare``) and a warm-up pass over its first 1%.  The
part is then replayed as a closed loop, one query at a time, each timed
from call to return, while the host-speed probe (``probe.py``) samples
the host every 20 ms.  Every time is reported twice: as wall time less
the probes inside it, and as reference time, scaled by the probes
nearest to it.  Answers are reduced to plain data outside the timed
region.  An untraced run checks them after the loop; a traced run is
compared with its untraced twin instead.  The result is printed as
one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import checks
import queries as query_mod
import repro
import workloads
from layers import Tracer, phase_totals
from probe import INTERVAL_S, NEAREST, Probe
from repro import obs

SRC = Path(__file__).resolve().parents[2] / "src"


def run(args: argparse.Namespace) -> dict:
    if SRC not in Path(repro.__file__).resolve().parents:
        raise RuntimeError(f"imported repro from {repro.__file__}, not from {SRC}")
    clock = time.perf_counter_ns
    spawn = args.spawn_ns + clock() - time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    tel = obs.Telemetry(label=f"e2e {args.workload}") if args.trace else None
    tracer = Tracer(tel, spans=bool(args.trace_dir)).install() if tel is not None else None
    try:
        sweep = args.workload in workloads.SWEEP_PROBED
        on_sample = tracer.exclude if tracer is not None else None
        with Probe(sweep, on_sample) as probe, obs.session(tel):
            stream = workloads.make_stream(args.workload, args.seed, args.queries)
            part = workloads.part_slice(args.queries, args.part, args.parts)
            stream["queries"] = stream["queries"][part]
            prepared = query_mod.prepare(stream, part.start)
            snap_setup = tracer.snapshot() if tracer else None
            for q in prepared[:max(1, len(prepared) // 100)]:
                try:
                    q.call()
                except Exception:  # the timed pass counts the failure
                    pass
            snap_start = tracer.snapshot() if tracer else None
            setup_end = clock()

            spans, answers, raised = [], [], []
            for q in prepared:
                t0 = clock()
                try:
                    result = q.call()
                except Exception as exc:
                    spans.append((t0, clock()))
                    answers.append(None)
                    raised.append([q.index, repr(exc)])
                    continue
                spans.append((t0, clock()))
                if tel is not None:
                    tel.record_since(f"query.{q.spec['op']}", t0)
                answers.append(q.answer(result))
            snap_end = tracer.snapshot() if tracer else None
            # Probes after the last query, for its nearest-probe median.
            time.sleep(NEAREST * INTERVAL_S / 2)
    finally:
        if tracer is not None:
            tracer.uninstall()
    walls = [(t1 - t0) / 1e9 - probe.probe_time(t0, t1) for t0, t1 in spans]
    setup_s = (setup_end - spawn) / 1e9 - probe.probe_time(spawn, setup_end)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    log_ratios = [
        math.log(a["objective"] / query_mod.ideal_time(q))
        for q, a in zip(prepared, answers) if a is not None
    ]
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "part": args.part,
        "queries": len(prepared),
        "answers_digest": hashlib.sha256(
            json.dumps(answers, sort_keys=True).encode()
        ).hexdigest(),
        "setup_s": probe.reference(spawn, setup_end),
        "latencies_s": [probe.reference(t0, t1) for t0, t1 in spans],
        "wall_setup_s": setup_s,
        "wall_latencies_s": walls,
        "probe": probe.summary(),
        "peak_rss_mb": peak_rss_mb,
        "log_ratio_sum": math.fsum(log_ratios),
        "ratio_count": len(log_ratios),
        "raised": raised,
        "check_failures": []
        if args.trace else checks.check_answers(prepared, answers, args.seed),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if tracer is not None:
        out["totals"] = phase_totals(
            tel, snap_setup, snap_start, snap_end, sum(walls), setup_s
        )
        if args.trace_dir:
            directory = Path(args.trace_dir)
            directory.mkdir(parents=True, exist_ok=True)
            obs.write_chrome_trace(directory / "trace.json", tel.events, tel.lanes)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--queries", type=int, required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--parts", type=int, required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-dir", default="")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
