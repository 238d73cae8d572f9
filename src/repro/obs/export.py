"""Exporters: metrics JSON, event-stream JSONL, Chrome-trace timeline.

All three outputs are canonical (sorted keys, fixed separators) and
derived only from simulated time, so same-seed runs export
byte-identical files — the property the golden-trace harness under
``tests/obs`` pins with SHA-256 digests.

The Chrome-trace output opens directly in ``chrome://tracing`` or
https://ui.perfetto.dev: spans become complete (``"X"``) slices,
point events become instants, and ``medium.frame`` rows — which carry
their own airtime ``start``/``end`` — are promoted to slices on the
``medium`` track so a Figure-4-style burst timeline is visible at a
glance.
"""

from __future__ import annotations

import json
from typing import Any, Union

from repro.errors import TraceError
from repro.obs.recorder import Recorder, SpanRecord, TraceRecord

#: Simulated seconds -> Chrome trace microseconds.
_US = 1e6


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def metrics_json(recorder: Recorder) -> str:
    """Canonical metrics snapshot text for ``recorder``."""
    if recorder.metrics is None:
        raise TraceError("recorder has no metrics registry to export")
    return recorder.metrics.to_json()


def _merged(
    recorder: Recorder,
) -> list[tuple[float, int, int, Union[TraceRecord, SpanRecord]]]:
    """Events and spans merged on (time, kind, emission index).

    Point events sort before spans starting at the same instant; within
    a kind, emission order breaks ties. The key is a pure function of
    the run, so the merge is reproducible.
    """
    rows = recorder.trace.all() if recorder.trace is not None else ()
    merged: list[tuple[float, int, int, Union[TraceRecord, SpanRecord]]] = [
        (row.time, 0, index, row) for index, row in enumerate(rows)
    ]
    merged.extend(
        (span.start, 1, index, span)
        for index, span in enumerate(recorder.spans)
    )
    merged.sort(key=lambda item: item[:3])
    return merged


def events_jsonl(recorder: Recorder) -> str:
    """The event stream: one canonical JSON object per line."""
    lines: list[str] = []
    for ts, kind, _index, record in _merged(recorder):
        if kind == 0:
            assert isinstance(record, TraceRecord)
            lines.append(
                _canonical(
                    {
                        "type": "event",
                        "ts": ts,
                        "name": record.category,
                        "fields": record.fields,
                    }
                )
            )
        else:
            assert isinstance(record, SpanRecord)
            lines.append(
                _canonical(
                    {
                        "type": "span",
                        "ts": ts,
                        "end": record.end,
                        "name": record.name,
                        "track": record.track,
                        "fields": record.fields,
                    }
                )
            )
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Chrome trace (chrome://tracing / Perfetto)
# ---------------------------------------------------------------------------


def _event_track(record: TraceRecord) -> str:
    """Deterministic track (thread) assignment for a point event."""
    fields = record.fields
    prefix = record.category.split(".", 1)[0]
    if prefix == "client" and "client" in fields:
        return f"client {fields['client']}"
    if prefix == "wnic" and "owner" in fields:
        return str(fields["owner"])
    if prefix in ("medium", "faults"):
        return "medium"
    if prefix in ("proxy", "scheduler"):
        return "proxy"
    if prefix == "node" and "node" in fields:
        return str(fields["node"])
    return prefix


def chrome_trace_json(recorder: Recorder) -> str:
    """A ``chrome://tracing`` / Perfetto JSON document for the run."""
    tids: dict[str, int] = {}

    def tid_for(track: str) -> int:
        tid = tids.get(track)
        if tid is None:
            tid = len(tids) + 1
            tids[track] = tid
        return tid

    trace_events: list[dict] = []
    for ts, kind, _index, record in _merged(recorder):
        if kind == 1:
            assert isinstance(record, SpanRecord)
            trace_events.append(
                {
                    "ph": "X",
                    "pid": 0,
                    "tid": tid_for(record.track),
                    "ts": record.start * _US,
                    "dur": (record.end - record.start) * _US,
                    "name": record.name,
                    "cat": "span",
                    "args": record.fields,
                }
            )
            continue
        assert isinstance(record, TraceRecord)
        fields = record.fields
        if record.category == "medium.frame":
            # Airtime is a slice, not an instant: the frame row carries
            # its own start/end bounds.
            trace_events.append(
                {
                    "ph": "X",
                    "pid": 0,
                    "tid": tid_for("medium"),
                    "ts": fields["start"] * _US,
                    "dur": (fields["end"] - fields["start"]) * _US,
                    "name": (
                        f"{fields.get('proto', 'frame')} "
                        f"{fields.get('src', '?')}->{fields.get('dst', '?')}"
                    ),
                    "cat": "frame",
                    "args": fields,
                }
            )
            continue
        trace_events.append(
            {
                "ph": "i",
                "s": "t",
                "pid": 0,
                "tid": tid_for(_event_track(record)),
                "ts": ts * _US,
                "name": record.category,
                "cat": "event",
                "args": fields,
            }
        )

    metadata = [
        {
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "name": "thread_name",
            "args": {"name": track},
        }
        for track, tid in sorted(tids.items(), key=lambda item: item[1])
    ]
    document = {
        "displayTimeUnit": "ms",
        "traceEvents": metadata + trace_events,
    }
    return json.dumps(document, sort_keys=True, default=str) + "\n"


def digest(text: str) -> str:
    """SHA-256 hex digest of exported text (the golden-trace key)."""
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()
