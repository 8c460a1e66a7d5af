"""Shared fixtures: small, fast model profiles and clusters."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.config import HardwareConfig, ModelConfig, TrainConfig
from repro.hardware.cluster import Cluster
from repro.models.zoo import GPT2_345M
from repro.profiling import profile_model

#: A small transformer so planner/DES tests stay fast.
TINY = ModelConfig(
    name="tiny", num_layers=6, hidden_size=256, num_heads=4,
    seq_length=128, vocab_size=8000,
)


@pytest.fixture(scope="session")
def hardware() -> HardwareConfig:
    return HardwareConfig()


@pytest.fixture(scope="session")
def cluster(hardware: HardwareConfig) -> Cluster:
    return Cluster(hardware)


@pytest.fixture(scope="session")
def train() -> TrainConfig:
    return TrainConfig(micro_batch_size=4, global_batch_size=64)


@pytest.fixture(scope="session")
def tiny_profile(hardware, train):
    return profile_model(TINY, hardware, train)


@pytest.fixture(scope="session")
def flat_profile(train):
    """TINY profiled on a one-GPU-per-node cluster: every pipeline hop is
    an inter-node link, matching the analytic simulator's single scalar
    ``Comm`` exactly (used by DES-vs-analytic agreement tests)."""
    hw = HardwareConfig(name="flat", num_nodes=16, gpus_per_node=1)
    return profile_model(TINY, hw, train)


@pytest.fixture(scope="session")
def gpt2_profile(hardware, train):
    return profile_model(GPT2_345M, hardware, train)


def run_with_edited_package(tmp_path: Path, relpath: str, script: str) -> str:
    """Run ``script`` in a subprocess that imports a copy of ``repro``
    whose ``relpath`` (e.g. ``"sim/analytic.py"``) has a comment appended;
    returns its stdout.  ``tests`` stays importable from the subprocess."""
    root = tmp_path / "edited-src"
    shutil.copytree(
        Path(repro.__file__).parent, root / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    target = root / "repro" / relpath
    target.write_bytes(target.read_bytes() + b"\n# edited copy\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        (str(root), str(Path(__file__).resolve().parent.parent))
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
