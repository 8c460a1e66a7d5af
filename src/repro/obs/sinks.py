"""Chrome-trace sink: export a search run the way we export schedules.

The planner/oracle span events go through the same
:func:`repro.sim.trace_export.timeline_to_trace_events` conversion the
DES timelines use — one thread row per lane (lane 0 is the recording
process), complete
(``ph: "X"``) events, microsecond timestamps — so a planning run opens
in Perfetto next to a schedule timeline with identical conventions.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Union

from repro.obs.telemetry import Event
from repro.sim.trace_export import timeline_to_trace_events


def trace_events(
    events: Iterable[Event], lanes: Dict[int, str]
) -> List[dict]:
    """Convert telemetry span events to Chrome trace-event records.

    Timestamps are re-based to the earliest event so the trace opens at
    t=0 regardless of the wall-clock epoch; span attrs ride along in the
    per-record ``args``.  The span name's leading dotted component
    (``oracle``, ``planner``, ``sweep``...) becomes the trace category.
    """
    events = list(events)
    if not events:
        return timeline_to_trace_events([], thread_names=lanes)
    base = min(ts for _name, ts, _dur, _lane, _attrs in events)
    raw = []
    for name, ts, dur, lane, _attrs in events:
        category = name.split(".", 1)[0]
        raw.append((lane, category, name, (ts - base) / 1e9, (ts - base + dur) / 1e9, ""))
    records = timeline_to_trace_events(
        raw, process_name="search", thread_names=lanes
    )
    # Zip the span attrs back onto the X records — raw tuples carry no
    # attr slot, and the metadata records at the head stay attr-free.
    spans = iter(events)
    for record in records:
        if record["ph"] != "X":
            continue
        _name, _ts, _dur, _lane, attrs = next(spans)
        if attrs:
            record["args"].update(attrs)
    return records


def write_chrome_trace(
    destination: Union[str, Path],
    events: Iterable[Event],
    lanes: Dict[int, str],
) -> int:
    """Write span events as a Perfetto-loadable Chrome trace JSON file."""
    records = trace_events(events, lanes)
    payload = {"traceEvents": records, "displayTimeUnit": "ms"}
    with open(destination, "w") as fh:
        json.dump(payload, fh)
    return len(records)
