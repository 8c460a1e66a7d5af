"""Export DES timelines to the Chrome trace-event format.

The produced JSON loads in ``chrome://tracing`` / Perfetto and shows one
row per device with forward, backward and communication spans — the
production way to inspect why a partition scheme bubbles.

Format reference: the "Trace Event Format" JSON array of complete events
(``ph: "X"``), timestamps in microseconds.

The exporter consumes the engine's raw event tuples directly (via
``ExecutionResult.raw_events``), so tracing a large timeline never
materialises :class:`TimelineEvent` objects; iterables of the object
form are still accepted.
"""

from __future__ import annotations

import json
from typing import IO, Dict, Iterable, List, Optional, Union

from repro.sim.engine import ExecutionResult
from repro.sim.timeline import as_raw_events

#: category -> Chrome trace colour name.
_COLOURS = {
    "F": "thread_state_running",     # green-ish
    "B": "thread_state_runnable",    # blue-ish
    "comm": "thread_state_iowait",   # orange-ish
    "idle": "thread_state_sleeping", # grey — a stage stalled on a payload
}


def timeline_to_trace_events(
    events: Iterable[object],
    *,
    pid: int = 1,
    process_name: str = "pipeline",
    thread_names: Optional[Dict[int, str]] = None,
) -> List[dict]:
    """Convert raw event tuples (or TimelineEvents) to trace-event dicts.

    ``thread_names`` overrides the default ``stage <device>`` labels —
    the search-trace exporter in ``repro.obs`` reuses this path with
    telemetry lanes instead of pipeline stages.
    """
    evs = as_raw_events(events)
    out: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": pid,
        "args": {"name": process_name},
    }]
    names = thread_names or {}
    seen_devices = set()
    for device, _cat, _label, _start, _end, _phase in evs:
        if device not in seen_devices:
            seen_devices.add(device)
            out.append({
                "name": "thread_name", "ph": "M", "pid": pid,
                "tid": device,
                "args": {"name": names.get(device, f"stage {device}")},
            })
    for device, category, label, start, end, phase in evs:
        record = {
            "name": label,
            "cat": category,
            "ph": "X",
            "pid": pid,
            "tid": device,
            "ts": start * 1e6,
            "dur": (end - start) * 1e6,
            "args": {"phase": phase} if phase else {},
        }
        colour = _COLOURS.get(category)
        if colour:
            record["cname"] = colour
        out.append(record)
    return out


def export_chrome_trace(
    result: ExecutionResult,
    destination: Union[str, IO[str]],
    *,
    process_name: Optional[str] = None,
) -> int:
    """Write an ExecutionResult's timeline as a Chrome trace JSON file.

    Returns the number of trace records written.  ``destination`` is a
    path or an open text file.
    """
    records = timeline_to_trace_events(
        result.raw_events,
        process_name=process_name or result.schedule_name,
    )
    payload = {"traceEvents": records, "displayTimeUnit": "ms"}
    if hasattr(destination, "write"):
        json.dump(payload, destination)  # type: ignore[arg-type]
    else:
        with open(destination, "w") as fh:
            json.dump(payload, fh)
    return len(records)
