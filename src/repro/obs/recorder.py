"""The single instrumentation write path.

Every component records through a :class:`Recorder`:

* :meth:`Recorder.event` — a point event on the simulated timeline,
  stored as a :class:`TraceRecord` in the run's :class:`TraceRecorder`
  (the event-stream export and ``repro trace`` read them; no report
  does);
* :meth:`Recorder.span` — a ``[start, end)`` interval (burst slots,
  schedule intervals, WNIC awake stretches) feeding the Chrome-trace /
  Perfetto exporter;
* :meth:`Recorder.counter` / :meth:`Recorder.gauge` /
  :meth:`Recorder.histogram` — the metrics instrument for a name and
  label set, which the caller updates (``inc``, ``set``, ``observe``).

:data:`OBS_MODES` says what a recorder keeps in each observability
mode. The ``OBS001`` analysis rule forbids calling
``TraceRecorder.record`` directly anywhere outside this package, so the
recorder is the one funnel all observability flows through.
:class:`NullRecorder` keeps the hooks nearly free when observability is
off (the overhead bench in ``benchmarks/test_bench_obs_overhead.py``
holds it under 5%), and a hot call site builds an event's fields or a
span only when :attr:`Recorder.record_events` or
:attr:`Recorder.record_spans` says the recorder keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple, Optional

from repro.obs.metrics import MetricsRegistry


class ObsMode(NamedTuple):
    """What a recorder in one observability mode keeps."""

    events: bool
    spans: bool
    metrics: bool


#: The observability modes: ``full`` keeps everything, ``trace`` the
#: event rows only (the pre-obs baseline), ``metrics`` the instruments
#: only (the 1k-client smoke mode) and ``off`` nothing.
OBS_MODES: dict[str, ObsMode] = {
    "full": ObsMode(events=True, spans=True, metrics=True),
    "trace": ObsMode(events=True, spans=False, metrics=False),
    "metrics": ObsMode(events=False, spans=False, metrics=True),
    "off": ObsMode(events=False, spans=False, metrics=False),
}


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
        self, time: float, category: str, fields: dict[str, Any]
    ) -> None:
        self.time = time
        self.category = category
        self.fields = fields

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

    def record(
        self, time: float, category: str, fields: dict[str, Any]
    ) -> None:
        """Append a record taking ownership of ``fields``.

        The recorder already collected the event's fields as a kwargs
        dict, so the row keeps that dict rather than building the same
        one again. The caller must not mutate ``fields`` afterwards.
        """
        self._records.append(TraceRecord(time, category, fields))

    def all(self) -> tuple[TraceRecord, ...]:
        """Every record in insertion (and therefore time) order."""
        return tuple(self._records)

    def query(self, category: Optional[str] = None) -> Iterator[TraceRecord]:
        """Iterate the records of ``category``: an exact category, a
        prefix ending in ``"."`` to match a whole namespace, or None
        for all of them."""
        for row in self._records:
            if category is not None:
                if category.endswith("."):
                    if not row.category.startswith(category):
                        continue
                elif row.category != category:
                    continue
            yield row

    def count(self, category: Optional[str] = None) -> int:
        """Number of records matching ``category`` (same rules as query)."""
        return sum(1 for _ in self.query(category))


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

    def observe(self, value: float) -> None:
        pass


#: Shared no-op instrument a recorder hands out when it keeps no
#: metrics; callers can cache and update it unconditionally.
NULL_INSTRUMENT = _NullInstrument()


class Recorder:
    """Interface (and no-op base) for instrumentation sinks.

    A recorder that keeps rows says so through :attr:`record_events`
    and :attr:`record_spans`. The call sites that fire per frame, per
    WNIC transition or per slot read them and build an event's fields
    or a span only when it is kept; a sink that leaves them ``False``
    never sees those rows.

    Metrics are written through the instrument :meth:`counter`,
    :meth:`gauge` or :meth:`histogram` hands out. Per-packet and
    per-client call sites (the medium's frame accounting, the AP's
    queue-depth gauge, and each client's WNIC, schedule, burst and
    scheduler instruments) keep the instrument they get on first use
    and skip the per-call label canonicalization and registry lookup.
    A recorder that keeps no metrics hands out a shared no-op.
    """

    #: The raw trace log, if events are kept (the event exports read it).
    trace: Optional[TraceRecorder] = None
    #: The metrics registry, if metrics are kept.
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

    def counter(self, name: str, **labels: Any) -> Any:
        """The counter for ``(name, labels)``."""
        return NULL_INSTRUMENT

    def gauge(self, name: str, **labels: Any) -> Any:
        """The gauge for ``(name, labels)``."""
        return NULL_INSTRUMENT

    def histogram(
        self, name: str, buckets: tuple[float, ...], **labels: Any
    ) -> Any:
        """The histogram for ``(name, labels)`` with upper bounds
        ``buckets``."""
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
    """The real sink: keeps what ``mode`` (a key of :data:`OBS_MODES`)
    keeps. A mode that keeps no events holds no trace log, and one that
    keeps no metrics holds no registry."""

    def __init__(self, mode: str = "full") -> None:
        keeps = OBS_MODES[mode]
        self.record_events = keeps.events
        self.record_spans = keeps.spans
        self.trace = TraceRecorder() if keeps.events else None
        self.metrics = MetricsRegistry() if keeps.metrics else None
        self._spans: list[SpanRecord] = []

    # -- events ------------------------------------------------------------

    def event(self, time: float, category: str, **fields: Any) -> None:
        if self.record_events:
            self.trace.record(time, category, fields)

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

    def counter(self, name: str, **labels: Any) -> Any:
        if self.metrics is None:
            return NULL_INSTRUMENT
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Any:
        if self.metrics is None:
            return NULL_INSTRUMENT
        return self.metrics.gauge(name, **labels)

    def histogram(
        self, name: str, buckets: tuple[float, ...], **labels: Any
    ) -> Any:
        if self.metrics is None:
            return NULL_INSTRUMENT
        return self.metrics.histogram(name, buckets=buckets, **labels)
