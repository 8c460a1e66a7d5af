"""Pin the paper's tables: every simulated experiment prints RESULTS.md.

Each experiment below is run in-process through its CLI entry point
(``main``, what ``python -m repro <name>`` prints).  Every printed table
must equal, line for line, the code block of RESULTS.md that carries the
same title; trailing spaces are ignored.  These experiments read only
simulated times, so their output is deterministic, and any change to a
plan, a simulator or a table's rounding shows here first.

Fig. 11 also prints a trend line (correlation and gap of simulator vs
executed times).  It is pinned against RESULTS.md's Fig. 11 sentence,
which states the same three numbers: the correlation is the paper's
Fig. 11 claim, and it is as deterministic as the table it summarises.

Fig. 12 (planner wall-clock) and the timing columns of
``deep_pipeline`` drift run to run, so they are not pinned; neither are
``sensitivity`` and ``robustness``, which RESULTS.md does not carry.
"""

import contextlib
import io
import pathlib
import re

import pytest

from repro.experiments import ALL_EXPERIMENTS

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "RESULTS.md"

PINNED = (
    "fig9", "fig10", "fig11", "fig13", "fig14",
    "table2", "table3", "table4", "autotune",
)

_TREND = re.compile(
    r"trend correlation=(\S+)  gap=(\S+)±(\S+) ms"
)


def _lines(text):
    return [line.rstrip() for line in text.splitlines()]


@pytest.fixture(scope="module")
def results():
    """RESULTS.md's text, and its code blocks keyed by their title."""
    text = RESULTS.read_text(encoding="utf-8")
    blocks = {}
    for body in re.findall(r"^```[^\n]*\n(.*?)\n```$", text, re.M | re.S):
        lines = _lines(body)
        blocks.setdefault(lines[0], []).append(lines)
    return text, blocks


def _printed(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        ALL_EXPERIMENTS[name].main()
    return [_lines(block) for block in out.getvalue().strip().split("\n\n")]


@pytest.mark.parametrize("name", PINNED)
def test_experiment_prints_results_md(name, results):
    text, blocks = results
    for lines in _printed(name):
        if name == "fig11":
            corr, mean, std = _TREND.fullmatch(lines.pop()).groups()
            assert (
                f"Trend correlation {corr}; gap {mean} ± {std} ms" in text
            )
        assert blocks.get(lines[0]) == [lines], lines[0]
