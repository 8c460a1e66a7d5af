"""Compare two result files of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py compare BASE.json HEAD.json

Each (end-to-end metric, workload) present in both files is classified
from the per-repeat raw values, with the metric's bound taken from
``BENCHMARK.json``:

* ``improved``: HEAD wins at least nine tenths of the repeat pairs
  (repeat ``i`` of BASE against repeat ``i`` of HEAD, ties count for
  neither side, at least 10 pairs) and the medians differ, in HEAD's
  favour, by more than BASE's quartile spread;
* ``regressed``: HEAD's median is worse than BASE's by more than the
  bound, and either BASE's own spread is within the bound or every HEAD
  repeat reads worse than every BASE repeat;
* ``unresolved``: BASE's spread is wider than the bound and the
  repeats do not separate (not every HEAD repeat better, nor every one
  worse);
* ``unchanged``: everything else.

Values that repeat exactly between runs of one commit are listed when
they differ: the per-layer counts of traced files, and ``quality_ratio``
when both files ran the same seed.  Any such difference is a change of
the program's work or answers.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def classify(
    base: Sequence[float], head: Sequence[float], better: str, bound: float
) -> Tuple[str, str]:
    """(verdict, one-line detail) for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    b_med, h_med = statistics.median(base), statistics.median(head)
    if len(base) > 1:
        q1, _, q3 = statistics.quantiles(base, n=4)
    else:
        q1 = q3 = b_med
    spread = (q3 - q1) / abs(b_med) if b_med else 0.0
    gain = sign * (h_med - b_med) / abs(b_med) if b_med else 0.0
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    all_better = all(sign * (h - b) > 0 for b in base for h in head)
    all_worse = all(sign * (h - b) < 0 for b in base for h in head)
    detail = (
        f"median {b_med:.6g} -> {h_med:.6g} (gain {100 * gain:+.2f}%), "
        f"base spread {100 * spread:.2f}%, bound {100 * bound:.1f}%, "
        f"wins {wins}/{len(pairs)}"
    )
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > 0 \
            and abs(h_med - b_med) > q3 - q1:
        return "improved", detail
    if spread > bound and not all_better:
        return ("regressed" if -gain > bound and all_worse else "unresolved"), detail
    if -gain > bound:
        return "regressed", detail
    return "unchanged", detail


def spec() -> Dict[str, Any]:
    """The benchmark's declaration: metric names, units, directions, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def compare(base: Dict[str, Any], head: Dict[str, Any]) -> List[Tuple[str, str, str, str]]:
    """(workload, metric, verdict, detail) rows for every shared pair."""
    metrics = {m["name"]: m for m in spec()["end_to_end"]}
    rows = []
    for workload, b_rec in base["workloads"].items():
        h_rec = head["workloads"].get(workload)
        if h_rec is None:
            continue
        for name, b_metric in b_rec["metrics"].items():
            if name not in metrics or name not in h_rec["metrics"]:
                continue
            verdict, detail = classify(
                b_metric["raw"], h_rec["metrics"][name]["raw"],
                metrics[name]["better"], metrics[name]["bound"],
            )
            rows.append((workload, name, verdict, detail))
    return rows


def exact_changes(base: Dict[str, Any], head: Dict[str, Any]) -> List[str]:
    """Values that repeat exactly between runs of one commit and differ.

    These are the traced pass's per-layer counts and, when both files ran
    the same seed, stream size and parts, ``quality_ratio``: the same queries
    give the same plans, so any difference is a change of the program's
    work or of its answers, however small against the metric's bound.
    """
    counts = {m["name"] for m in spec()["per_layer"] if m["unit"] == "count"}
    same_inputs = base["config"]["seed"] == head["config"]["seed"]
    out = []
    for workload, b_rec in base["workloads"].items():
        h_rec = head["workloads"].get(workload)
        if h_rec is None:
            continue
        h_layers = h_rec.get("layers", {})
        for name, b_val in b_rec.get("layers", {}).items():
            if name in counts and name in h_layers and b_val != h_layers[name]:
                out.append(f"{workload} {name}: {b_val:g} -> {h_layers[name]:g}")
        if same_inputs and (b_rec["queries"], b_rec["parts"]) == (
            h_rec["queries"], h_rec["parts"]
        ):
            b_q = b_rec["metrics"]["quality_ratio"]["value"]
            h_q = h_rec["metrics"]["quality_ratio"]["value"]
            if b_q != h_q:
                out.append(f"{workload} quality_ratio: {b_q!r} -> {h_q!r}")
    return out


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BASE.json HEAD.json", file=sys.stderr)
        return 2
    base, head = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(base, head)
    for workload, name, verdict, detail in rows:
        print(f"{workload:8s} {name:16s} {verdict:10s} {detail}")
    for line in exact_changes(base, head):
        print(f"exact value changed: {line}")
    return 1 if any(v == "regressed" for _, _, v, _ in rows) else 0
