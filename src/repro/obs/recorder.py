"""The single instrumentation write path.

Every component records through a :class:`Recorder`:

* :meth:`Recorder.event` — a point event on the simulated timeline,
  stored as a :class:`TraceRecord` in the run's :class:`TraceRecorder`
  (the event-stream export and ``repro trace`` read them; no report
  does);
* :meth:`Recorder.span` — a ``[start, end)`` interval (burst slots,
  schedule intervals, WNIC awake stretches) feeding the Chrome-trace /
  Perfetto exporter;
* :meth:`Recorder.inc` / :meth:`Recorder.gauge_set` /
  :meth:`Recorder.observe` — metrics instruments.

The ``OBS001`` analysis rule forbids calling ``TraceRecorder.record``
directly anywhere outside this package, so the recorder is the one
funnel all observability flows through. :class:`NullRecorder` keeps the
hooks nearly free when observability is off (the overhead bench in
``benchmarks/test_bench_obs_overhead.py`` holds it under 5%), and a hot
call site builds an event's fields or a span only when
:attr:`Recorder.record_events` or :attr:`Recorder.record_spans` says
the recorder keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from repro.obs.metrics import MetricsRegistry


class TraceRecord:
    """A single trace row (treat as immutable once recorded).

    A plain ``__slots__`` class rather than a frozen dataclass: rows
    are allocated once per instrumented event (hundreds of thousands
    per run) and the frozen-dataclass ``__setattr__`` detour showed up
    in sweep profiles.

    Attributes:
        time: simulated timestamp in seconds.
        category: dotted event category, e.g. ``"wnic.transition"``.
        fields: arbitrary structured payload.
    """

    __slots__ = ("time", "category", "fields")

    def __init__(
        self,
        time: float,
        category: str,
        fields: Optional[dict[str, Any]] = None,
    ) -> None:
        self.time = time
        self.category = category
        self.fields = {} if fields is None else fields

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceRecord(time={self.time!r}, category={self.category!r}, "
            f"fields={self.fields!r})"
        )


class TraceRecorder:
    """Append-only container of trace records with simple querying."""

    def __init__(self) -> None:
        self._records: list[TraceRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def record(self, time: float, category: str, **fields: Any) -> TraceRecord:
        """Append a record and return it."""
        row = TraceRecord(time, category, fields)
        self._records.append(row)
        return row

    def record_fields(
        self, time: float, category: str, fields: dict[str, Any]
    ) -> None:
        """Append a record taking ownership of an existing ``fields`` dict.

        The hot-path sibling of :meth:`record`: the recorder already
        collected the event's fields as a kwargs dict, so re-splatting
        them through ``**fields`` would build the same dict twice per
        event. The caller must not mutate ``fields`` afterwards.
        """
        self._records.append(TraceRecord(time, category, fields))

    def all(self) -> tuple[TraceRecord, ...]:
        """Every record in insertion (and therefore time) order."""
        return tuple(self._records)

    def query(
        self,
        category: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
        since: float = float("-inf"),
        until: float = float("inf"),
    ) -> Iterator[TraceRecord]:
        """Iterate records matching the given filters.

        Args:
            category: exact category, or a prefix ending in ``"."`` to
                match a whole namespace, or None for all categories.
            predicate: optional extra row filter.
            since: inclusive lower time bound.
            until: exclusive upper time bound.
        """
        for row in self._records:
            if not since <= row.time < until:
                continue
            if category is not None:
                if category.endswith("."):
                    if not row.category.startswith(category):
                        continue
                elif row.category != category:
                    continue
            if predicate is not None and not predicate(row):
                continue
            yield row

    def count(self, category: Optional[str] = None) -> int:
        """Number of records matching ``category`` (same rules as query)."""
        return sum(1 for _ in self.query(category=category))


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One completed ``[start, end)`` interval on a named track."""

    start: float
    end: float
    name: str
    track: str
    fields: dict[str, Any]


class _NullInstrument:
    """Write-only stand-in for a metrics instrument; discards updates."""

    __slots__ = ()

    def inc(self, n: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


#: Shared no-op instrument returned by handle resolution when metrics
#: are off; callers can cache and update it unconditionally.
NULL_INSTRUMENT = _NullInstrument()


class Recorder:
    """Interface (and no-op base) for instrumentation sinks.

    A recorder that keeps rows says so through :attr:`record_events`
    and :attr:`record_spans`. The call sites that fire per frame, per
    WNIC transition or per slot read them and build an event's fields
    or a span only when it is kept; a sink that leaves them ``False``
    never sees those rows.
    """

    #: The wrapped raw trace log, if any (the event exports read it).
    trace: Optional[TraceRecorder] = None
    #: The metrics registry, if metrics are being collected.
    metrics: Optional[MetricsRegistry] = None
    #: Whether :meth:`event` keeps its rows.
    record_events: bool = False
    #: Whether :meth:`span` keeps its spans.
    record_spans: bool = False

    def event(self, time: float, category: str, **fields: Any) -> None:
        """Record a point event at simulated ``time``."""

    def span(
        self, start: float, end: float, name: str, track: str,
        **fields: Any,
    ) -> None:
        """Record a completed interval on ``track``."""

    def inc(self, name: str, n: float = 1, **labels: Any) -> None:
        """Bump a counter."""

    def gauge_set(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge."""

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[tuple[float, ...]] = None,
        **labels: Any,
    ) -> None:
        """Record one histogram observation."""

    # -- resolved handles --------------------------------------------------
    #
    # Per-packet and per-client call sites (the medium's frame
    # accounting, the AP's queue-depth gauge, and each client's WNIC,
    # schedule, burst and scheduler instruments) resolve their
    # instrument once, on first use, and update the returned handle
    # directly, skipping the per-call label canonicalization and
    # registry lookup. The handles still come from
    # the recorder, so observability stays funneled through this class
    # and turning metrics off yields free no-op handles.

    def resolve_counter(self, name: str, **labels: Any) -> Any:
        """A cacheable counter handle (no-op when metrics are off)."""
        return NULL_INSTRUMENT

    def resolve_gauge(self, name: str, **labels: Any) -> Any:
        """A cacheable gauge handle (no-op when metrics are off)."""
        return NULL_INSTRUMENT

    def resolve_histogram(
        self,
        name: str,
        buckets: Optional[tuple[float, ...]] = None,
        **labels: Any,
    ) -> Any:
        """A cacheable histogram handle (no-op when metrics are off)."""
        return NULL_INSTRUMENT

    @property
    def spans(self) -> tuple[SpanRecord, ...]:
        """Completed spans in emission order."""
        return ()


class NullRecorder(Recorder):
    """Discards everything; all hooks are no-ops.

    Stateless, so one instance serves every caller: it pickles by
    reference to :data:`NULL_RECORDER`, and a result that crosses a
    process or cache boundary unpickles with the shared instance.
    """

    def __reduce__(self) -> str:
        return "NULL_RECORDER"


#: Shared stateless no-op instance (safe to reuse everywhere).
NULL_RECORDER = NullRecorder()


class SimRecorder(Recorder):
    """The real sink: trace rows + spans + metrics.

    Args:
        trace: raw event log to append to (created when omitted).
        metrics: shared registry (created when omitted).
        record_metrics: when False, ``inc``/``gauge_set``/``observe``
            become no-ops (trace-only mode, the pre-obs baseline).
        record_spans: when False, ``span`` becomes a no-op.
        record_events: when False, ``event`` becomes a no-op
            (metrics-only mode — large campus runs keep counters
            without accumulating per-event trace rows).
    """

    def __init__(
        self,
        trace: Optional[TraceRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
        record_metrics: bool = True,
        record_spans: bool = True,
        record_events: bool = True,
    ) -> None:
        self.trace = trace if trace is not None else TraceRecorder()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.record_metrics = record_metrics
        self.record_spans = record_spans
        self.record_events = record_events
        self._spans: list[SpanRecord] = []

    # -- events ------------------------------------------------------------

    def event(self, time: float, category: str, **fields: Any) -> None:
        if self.record_events:
            self.trace.record_fields(time, category, fields)

    def span(
        self, start: float, end: float, name: str, track: str,
        **fields: Any,
    ) -> None:
        if not self.record_spans:
            return
        self._spans.append(
            SpanRecord(
                start=start, end=end, name=name, track=track, fields=fields
            )
        )

    @property
    def spans(self) -> tuple[SpanRecord, ...]:
        return tuple(self._spans)

    # -- metrics -----------------------------------------------------------

    def inc(self, name: str, n: float = 1, **labels: Any) -> None:
        if self.record_metrics:
            self.metrics.counter(name, **labels).inc(n)

    def gauge_set(self, name: str, value: float, **labels: Any) -> None:
        if self.record_metrics:
            self.metrics.gauge(name, **labels).set(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[tuple[float, ...]] = None,
        **labels: Any,
    ) -> None:
        if self.record_metrics:
            self.metrics.histogram(name, buckets=buckets, **labels).observe(
                value
            )

    def resolve_counter(self, name: str, **labels: Any) -> Any:
        if not self.record_metrics:
            return NULL_INSTRUMENT
        return self.metrics.counter(name, **labels)

    def resolve_gauge(self, name: str, **labels: Any) -> Any:
        if not self.record_metrics:
            return NULL_INSTRUMENT
        return self.metrics.gauge(name, **labels)

    def resolve_histogram(
        self,
        name: str,
        buckets: Optional[tuple[float, ...]] = None,
        **labels: Any,
    ) -> Any:
        if not self.record_metrics:
            return NULL_INSTRUMENT
        return self.metrics.histogram(name, buckets=buckets, **labels)
