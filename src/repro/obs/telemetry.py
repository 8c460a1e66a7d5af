"""Process-wide telemetry registry: spans, counters and sessions.

One :class:`Telemetry` instance is a *run*: an append-only list of span
events (name, wall-aligned start, duration, lane, attrs), a registry of
dotted-name counters, and a lane table mapping integer lanes to labels
(``0`` is the recording process).  The process-wide *current* instance is what the instrumentation
in the search stack records into; when none is installed every probe is
a true no-op:

* :func:`span` returns one shared, stateless no-op context manager —
  no allocation, no clock read;
* :func:`add` is a global read plus an ``is None`` test;
* hot loops capture :func:`current` once and skip their whole recording
  block on ``None``, so the disabled path costs one pointer compare per
  flush (``benchmarks/test_bench_telemetry.py`` guards the total at
  under 2 % of the depth-8 oracle bench).

Timestamps are wall-aligned nanoseconds: each instance captures a
``(time_ns, perf_counter_ns)`` epoch pair at construction and converts
monotonic span clocks onto the wall axis, so runs recorded by different
processes share one time axis without a shared monotonic clock.

Recording telemetry can never change a plan: the registry only *reads*
clocks and counts — it draws no randomness, mutates no search state,
and the search layers fold their counters from the very result fields
they return (``tests/obs/test_bitidentity.py`` property-checks plans,
argmins and tie-breaks bit-identical with telemetry on vs off).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

#: on-disk schema version of events.jsonl / counters.json.
SCHEMA = 1

#: event tuple layout: (name, ts_wall_ns, dur_ns, lane, attrs-or-None).
Event = Tuple[str, int, int, int, Optional[Dict[str, Any]]]


class _NoopSpan:
    """The disabled fast path: one shared, stateless context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _Span:
    """An open span; closing it appends one event to its registry."""

    __slots__ = ("_tel", "_name", "_attrs", "_t0")

    def __init__(self, tel: "Telemetry", name: str, attrs) -> None:
        self._tel = tel
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tel.record_since(self._name, self._t0, **(self._attrs or {}))
        return False


class Telemetry:
    """One run's span events, counters and lanes.

    ``label`` names lane 0 (the recording process) in traces and
    reports.  Instances are cheap; everything is in memory until
    :meth:`write` / :meth:`append_events`.
    """

    def __init__(self, label: str = "main") -> None:
        self.label = label
        self.pid = os.getpid()
        self._epoch_wall_ns = time.time_ns()
        self._epoch_perf_ns = time.perf_counter_ns()
        self.events: List[Event] = []
        self.counters: Dict[str, float] = {}
        self.lanes: Dict[int, str] = {0: label}

    # -- recording ---------------------------------------------------------

    def clock(self) -> int:
        """Monotonic span clock (ns); pair with :meth:`record_since`."""
        return time.perf_counter_ns()

    def span(self, name: str, **attrs) -> _Span:
        """Context manager recording one span on lane 0."""
        return _Span(self, name, attrs or None)

    def record_since(self, name: str, t0_perf_ns: int, **attrs) -> None:
        """Close a span opened with :meth:`clock` (hot-loop form).

        The hot search loops use ``clock()``/``record_since`` instead of
        the ``with``-statement so the *disabled* branch is a single
        ``is None`` test with no context-manager machinery behind it.
        """
        dur = time.perf_counter_ns() - t0_perf_ns
        ts = self._epoch_wall_ns + (t0_perf_ns - self._epoch_perf_ns)
        self.events.append((name, ts, dur, 0, attrs or None))

    def add(self, name: str, value: float = 1) -> None:
        """Accumulate ``value`` onto the dotted counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Overwrite the dotted counter ``name`` (last-write-wins gauge)."""
        self.counters[name] = value

    # -- sinks -------------------------------------------------------------

    def _meta(self) -> Dict[str, Any]:
        return {"meta": {"schema": SCHEMA, "label": self.label, "pid": self.pid}}

    def append_events(self, path: Union[str, os.PathLike]) -> int:
        """Append this run's events to a JSONL file.

        Writes the meta header when creating the file; each event is one
        ``{"name", "ts", "dur", "lane", "attrs"}`` line (ns units).
        Returns the number of event lines written.
        """
        path = Path(path)
        fresh = not path.exists()
        with open(path, "a") as fh:
            if fresh:
                fh.write(json.dumps(self._meta()) + "\n")
            for name, ts, dur, lane, attrs in self.events:
                fh.write(json.dumps({
                    "name": name, "ts": ts, "dur": dur, "lane": lane,
                    **({"attrs": attrs} if attrs else {}),
                }) + "\n")
        return len(self.events)

    def write(self, directory: Union[str, os.PathLike]) -> Path:
        """Write every sink into ``directory`` (created if needed).

        Produces ``events.jsonl`` (the event log), ``counters.json``
        (counter registry + lane table), ``trace.json`` (Chrome trace,
        Perfetto-loadable) and ``summary.txt`` (the terminal summary).
        """
        from repro.obs.sinks import write_chrome_trace

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        events_path = directory / "events.jsonl"
        if events_path.exists():
            events_path.unlink()
        self.append_events(events_path)
        (directory / "counters.json").write_text(json.dumps({
            "schema": SCHEMA,
            "label": self.label,
            "counters": dict(sorted(self.counters.items())),
            "lanes": {str(k): v for k, v in sorted(self.lanes.items())},
        }, indent=2) + "\n")
        write_chrome_trace(directory / "trace.json", self.events, self.lanes)
        (directory / "summary.txt").write_text(self.summary() + "\n")
        return directory

    def summary(self) -> str:
        """The terminal summary (top spans by self-time, counters)."""
        from repro.obs.report import render_summary

        return render_summary(self.events, self.counters, self.lanes)


# ---------------------------------------------------------------------------
# Process-wide current registry.
# ---------------------------------------------------------------------------

_CURRENT: Optional[Telemetry] = None


def current() -> Optional[Telemetry]:
    """The registry instrumentation records into, or None (disabled)."""
    return _CURRENT


def active() -> bool:
    """True when a registry is installed (telemetry enabled)."""
    return _CURRENT is not None


def span(name: str, **attrs):
    """Record a span on the current registry; shared no-op when disabled."""
    tel = _CURRENT
    if tel is None:
        return NOOP_SPAN
    return tel.span(name, **attrs)


def add(name: str, value: float = 1) -> None:
    """Accumulate onto a current-registry counter; no-op when disabled."""
    tel = _CURRENT
    if tel is not None:
        tel.counters[name] = tel.counters.get(name, 0) + value


def set_current(tel: Optional[Telemetry]) -> Optional[Telemetry]:
    """Install ``tel`` as the process-wide registry (CLI ``--telemetry``)."""
    global _CURRENT
    _CURRENT = tel
    return tel


class session:
    """Scoped installation of a registry as the process-wide current.

    ``with session(tel): ...`` records everything inside into ``tel``
    and restores the previous registry on exit; ``session(None)`` is a
    no-op passthrough (the previous registry, if any, stays current).
    Re-entering with the already-current registry is harmless.
    """

    __slots__ = ("_tel", "_prev")

    def __init__(self, tel: Optional[Telemetry]) -> None:
        self._tel = tel

    def __enter__(self) -> Optional[Telemetry]:
        global _CURRENT
        self._prev = _CURRENT
        if self._tel is not None:
            _CURRENT = self._tel
        return self._tel

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _CURRENT
        _CURRENT = self._prev
        return False
