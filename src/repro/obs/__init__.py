"""Unified telemetry: span tracing, counters, and search-trace export.

Quickstart::

    from repro import obs

    tel = obs.Telemetry()
    with obs.session(tel):
        exhaustive_partition(profile, 8, 32)
    tel.write("runs/t0")
    # runs/t0/ now holds events.jsonl, counters.json, trace.json
    # (Perfetto-loadable) and summary.txt.
    print(tel.summary())

Instrumentation sites call :func:`span` / :func:`add` (or capture
:func:`current` once around a hot loop); with no registry installed the
whole layer is a true no-op.  See ``docs/observability.md`` for the
span/counter naming scheme and sink formats.

The recording core (:mod:`repro.obs.telemetry`, :mod:`repro.obs.stats`)
is stdlib-only and imported eagerly; the sink/report surface pulls in
the simulator's trace exporter, so it loads lazily on first use — the
planner and oracle can import this package without dragging in the DES.
"""

from repro.obs.stats import hit_rate, rate
from repro.obs.telemetry import (
    NOOP_SPAN,
    Telemetry,
    active,
    add,
    current,
    session,
    set_current,
    span,
)

_LAZY = {
    "derived_stats": "repro.obs.report",
    "load_run": "repro.obs.report",
    "render_summary": "repro.obs.report",
    "report_directory": "repro.obs.report",
    "span_self_times": "repro.obs.report",
    "trace_events": "repro.obs.sinks",
    "write_chrome_trace": "repro.obs.sinks",
}

__all__ = [
    "NOOP_SPAN",
    "Telemetry",
    "active",
    "add",
    "current",
    "hit_rate",
    "rate",
    "session",
    "set_current",
    "span",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
