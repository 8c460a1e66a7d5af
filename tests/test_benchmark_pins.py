"""Every entry point the end-to-end benchmark traces still resolves.

``benchmarks/e2e/layers.py`` wraps each ``LAYERS`` target when the
benchmark runs with ``--trace 1``.  A target that no longer exists, or a
method its class only inherits (the tracer reads the class's own
``__dict__``), makes that run fail at start-up, so the targets are
checked here through the tracer's own ``_resolve`` and ``_raw``.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.core.analytic_sim import PipelineSim

_LAYERS_PY = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "layers.py"
)


def _load_layers():
    spec = importlib.util.spec_from_file_location("e2e_layers", _LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()
TARGETS = [t for targets in layers.LAYERS.values() for t in targets]


@pytest.mark.parametrize("target", TARGETS)
def test_layer_target_resolves(target):
    owner, name = layers._resolve(target)
    raw = layers._raw(owner, name)
    assert callable(raw) or isinstance(raw, classmethod)


def test_tracer_installs_and_restores_every_target():
    run, resume = PipelineSim.run, PipelineSim.__dict__["resume"]
    tracer = layers.Tracer(tel=None)
    try:
        tracer.install()
        assert PipelineSim.run is not run
    finally:
        tracer.uninstall()
    assert PipelineSim.run is run
    assert PipelineSim.__dict__["resume"] is resume
