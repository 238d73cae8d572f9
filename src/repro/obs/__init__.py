"""Deterministic observability: metrics, spans, timeline export.

The one instrumentation funnel for the simulator and the live runtime.
Components write through a :class:`Recorder` (events + spans + metrics)
and the package imports nothing of either stack; exporters turn
a finished run into canonical metrics JSON, an event-stream JSONL, and
a Chrome-trace / Perfetto timeline. Everything is keyed to simulated
time, so same-seed runs export byte-identical artifacts.
"""

from repro.obs.export import (
    chrome_trace_json,
    digest,
    events_jsonl,
    metrics_json,
)
from repro.obs.metrics import (
    BYTES_BUCKETS,
    DEPTH_BUCKETS,
    RATIO_BUCKETS,
    SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    label_key,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    OBS_MODES,
    NullRecorder,
    Recorder,
    SimRecorder,
    SpanRecord,
    TraceRecord,
    TraceRecorder,
)

__all__ = [
    "BYTES_BUCKETS",
    "DEPTH_BUCKETS",
    "NULL_RECORDER",
    "OBS_MODES",
    "RATIO_BUCKETS",
    "SECONDS_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRecorder",
    "Recorder",
    "SimRecorder",
    "SpanRecord",
    "TraceRecord",
    "TraceRecorder",
    "chrome_trace_json",
    "digest",
    "events_jsonl",
    "label_key",
    "metrics_json",
]
