"""Generate a markdown evaluation report from live experiment runs.

``python -m repro report`` (or :func:`generate_report`) re-runs the whole
evaluation and emits a single markdown document with every regenerated
table plus the headline numbers (speedup bands, startup reduction, balance
ratios, search-time ratios) — the machine-written counterpart to the
hand-curated EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments import (
    autotune,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    table2,
    table3,
    table4,
)


def _code_block(text: str) -> str:
    return "```\n" + text + "\n```"


def _speedups(rows: List[list]) -> List[float]:
    out = []
    for row in rows:
        cell = row[-1]
        if isinstance(cell, str) and cell.endswith("x"):
            out.append(float(cell.rstrip("x")))
    return out


def generate_report() -> str:
    """Run every experiment and return the markdown report."""
    sections: List[str] = [
        "# AutoPipe reproduction — regenerated evaluation",
        "",
        "All numbers below were produced by this run on the simulated "
        "cluster (see DESIGN.md for the substitution rules).",
    ]

    r9 = fig9.run()
    s9 = _speedups(r9.rows)
    sections += [
        "", "## Fig. 9 — iteration time vs micro-batch size", "",
        f"AutoPipe speedup over Megatron-LM: "
        f"{min(s9):.3f}x – {max(s9):.3f}x "
        "(paper: 1.07x–1.12x).",
        "", _code_block(r9.render()),
    ]

    r10 = fig10.run()
    s10 = _speedups(r10.rows)
    sections += [
        "", "## Fig. 10 — iteration time vs pipeline depth", "",
        f"AutoPipe speedup range: {min(s10):.3f}x – {max(s10):.3f}x, "
        "growing with depth (paper: 1.02x–1.30x).",
        "", _code_block(r10.render()),
    ]

    r11 = fig11.run()
    sections += [
        "", "## Fig. 11 — simulator vs actual", "",
        f"Trend correlation {r11.meta['trend_correlation']:.4f}; "
        f"gap {r11.meta['gap_mean_ms']:.2f} ± {r11.meta['gap_std_ms']:.2f} ms "
        "(paper: same trend, stable gap).",
        "", _code_block(r11.render()),
    ]

    r12 = fig12.run()
    sections += [
        "", "## Fig. 12 — planner search time", "",
        "AutoPipe fastest on every model; DAPPLE slowest "
        "(paper: order-of-magnitude gaps).",
        "", _code_block(r12.render()),
    ]

    r13 = fig13.run()
    sections += [
        "", "## Fig. 13 — balance comparison", "",
        "Std-dev of per-stage running time; AutoPipe normalised to 1.00x "
        "(paper: 2.73x–12.7x improvements).",
        "", _code_block(r13.render()),
    ]

    r14a, r14b = fig14.run_a(), fig14.run_b()
    sections += [
        "", "## Fig. 14 — startup overhead", "",
        "Slicer and interleaved halve startup; interleaved OOMs at large "
        "micro-batches and cannot run depths that do not divide the layer "
        "count.",
        "", _code_block(r14a.render()), "", _code_block(r14b.render()),
    ]

    for title, mod in (
        ("Table II — partition schemes", table2),
        ("Table III — planners, low memory", table3),
        ("Table IV — planners, high memory", table4),
        ("Autotune — joint (dp x pp x slices) search", autotune),
    ):
        sections += ["", f"## {title}", "", _code_block(mod.run().render())]

    return "\n".join(sections) + "\n"


def write_report(path: str) -> str:
    report = generate_report()
    with open(path, "w") as fh:
        fh.write(report)
    return report


def run():  # pragma: no cover - CLI symmetry with other experiments
    from repro.experiments.common import ExperimentResult

    return ExperimentResult(
        name=generate_report(), headers=["report"], rows=[]
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(generate_report())


if __name__ == "__main__":  # pragma: no cover
    main()
