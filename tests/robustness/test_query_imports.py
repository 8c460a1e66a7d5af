"""A search imports no module while it runs.

A module imported on first use is paid inside whichever query calls it
first: ``np.quantile`` and ``np.union1d`` import ``numpy.ma`` (tens of
ms), more than a whole median query.  Each case runs in a fresh
interpreter, with the package and ``numpy.random`` (which every
perturbation draw needs) already imported, as a set-up would, and
checks that its calls imported no module: an oracle search that
reaches its probe, a p95 robust plan, a p95 robust oracle, a nominal
plan, and the p95 read-outs of a robustness profile and the runtime
metrics.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

_SETUP = """
import json, sys
import numpy.random
from repro import TrainConfig, get_model, plan_partition, profile_model
from repro.core.exhaustive import exhaustive_partition
from repro.hardware.device import DEFAULT_CLUSTER_HW
from repro.robustness import RobustObjective, Straggler
from repro.robustness.evaluate import robustness_profile
from repro.runtime.metrics import p95

profile = profile_model(
    get_model("gpt2-345m"), DEFAULT_CLUSTER_HW,
    TrainConfig(micro_batch_size=1, global_batch_size=1),
)
straggler = Straggler(1.5, probability=0.5)
mean = RobustObjective(models=(straggler,), draws=32, seed=0,
                       statistic="mean")
tail = RobustObjective(models=(straggler,), draws=32, seed=1,
                       statistic="p95")
times = plan_partition(profile, 4, 8).sim.stage_times
before = set(sys.modules)
"""

#: Each case's calls; an oracle over 32 draws probes 128 columns, fewer
#: than a depth-5 lattice holds.
_CASES = {
    "oracle probe": "exhaustive_partition(profile, 5, 8, robust=mean, "
                    "max_evaluations=None)",
    "robust plan p95": "plan_partition(profile, 4, 8, robust=tail)",
    "robust oracle p95": "exhaustive_partition(profile, 3, 8, robust=tail, "
                         "max_evaluations=None)",
    "plan": "plan_partition(profile, 6, 12, granularity='layer')",
    "p95 read-outs": "robustness_profile(times, 8, (straggler,), "
                     "draws=32).p95; p95([1.0, 2.0, 3.0])",
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_searches_import_no_module(case):
    script = _SETUP + _CASES[case] + (
        "\nprint(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True, timeout=300,
    ).stdout
    assert json.loads(out.strip().splitlines()[-1]) == []
