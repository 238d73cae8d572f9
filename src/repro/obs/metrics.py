"""Deterministic metrics instruments (counters, gauges, histograms).

Everything here is keyed to **simulated** time and plain arithmetic:
there is no wall clock, no thread, no sampling. Two runs with the same
``(plan, seed)`` produce byte-identical snapshots, which is what lets
the metrics output itself serve as a regression oracle (the golden
traces under ``tests/obs/goldens``).

Instruments are identified by ``(name, labels)``; labels are stored as
a canonically sorted tuple so snapshot order never depends on call
order or dict iteration.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Mapping, Optional, Union

from repro.errors import ConfigurationError

Number = Union[int, float]

#: Label values are stringified; a label set is a sorted tuple of pairs.
LabelKey = tuple[tuple[str, str], ...]

# Standard bucket ladders (upper bounds; +inf is implicit).
RATIO_BUCKETS: tuple[float, ...] = (
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)
SECONDS_BUCKETS: tuple[float, ...] = (
    0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005,
    0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0,
)
BYTES_BUCKETS: tuple[float, ...] = (
    256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304,
)
DEPTH_BUCKETS: tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64)


def label_key(labels: Mapping[str, Any]) -> LabelKey:
    """Canonical, hashable form of a label mapping.

    The 0/1-label cases — the overwhelming majority of hot-path
    instrument lookups — skip the sort entirely (a 1-tuple is already
    sorted).
    """
    if not labels:
        return ()
    if len(labels) == 1:
        [(key, value)] = labels.items()
        return ((key, str(value)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def inc(self, n: Number = 1) -> None:
        """Add ``n`` (must be >= 0) to the counter."""
        if n < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc by {n!r})"
            )
        self.value += n


class Gauge:
    """A value that is set outright, so it can go up and down."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def set(self, value: Number) -> None:
        """Replace the gauge value."""
        self.value = value


class Histogram:
    """A fixed-bucket histogram (cumulative-free, per-bucket counts).

    ``buckets`` are inclusive upper bounds in increasing order; an
    implicit overflow bucket catches everything above the last bound.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "total", "count")

    def __init__(
        self, name: str, labels: LabelKey, buckets: tuple[float, ...]
    ) -> None:
        if not buckets or any(
            b >= buckets[i + 1] for i, b in enumerate(buckets[:-1])
        ):
            raise ConfigurationError(
                f"histogram {name!r} needs strictly increasing buckets, "
                f"got {buckets!r}"
            )
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(buckets) + 1)  # +1 overflow bucket
        self.total = 0.0
        self.count = 0

    def observe(self, value: Number) -> None:
        """Record one observation."""
        # bisect_left finds the first bound with value <= bound, i.e.
        # exactly the bucket a linear <= scan would pick; past-the-end
        # is the implicit overflow bucket.
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1


class MetricsRegistry:
    """The process-wide (per scenario) collection of instruments."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}

    # -- instrument access -------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        key = (name, label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = Counter(name, key[1])
            self._counters[key] = instrument
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        key = (name, label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = Gauge(name, key[1])
            self._gauges[key] = instrument
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Optional[tuple[float, ...]] = None,
        **labels: Any,
    ) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use.

        ``buckets`` is only consulted at creation; later calls may omit
        it. Re-creating with *different* buckets is a configuration
        error (the snapshot would silently stop lining up).
        """
        key = (name, label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = Histogram(name, key[1], buckets or SECONDS_BUCKETS)
            self._histograms[key] = instrument
        # Tuple equality compares by value, so the stored float bounds
        # match an int-typed declaration of the same ladder directly —
        # no per-call float() round trip.
        elif buckets is not None and instrument.buckets != tuple(buckets):
            raise ConfigurationError(
                f"histogram {name!r} re-declared with different buckets"
            )
        return instrument

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-ready, deterministically ordered dump of every
        instrument (sorted by name then labels)."""

        def order(item: tuple[tuple[str, LabelKey], Any]):
            return item[0]

        return {
            "counters": [
                {
                    "name": c.name,
                    "labels": dict(c.labels),
                    "value": c.value,
                }
                for _, c in sorted(self._counters.items(), key=order)
            ],
            "gauges": [
                {
                    "name": g.name,
                    "labels": dict(g.labels),
                    "value": g.value,
                }
                for _, g in sorted(self._gauges.items(), key=order)
            ],
            "histograms": [
                {
                    "name": h.name,
                    "labels": dict(h.labels),
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for _, h in sorted(self._histograms.items(), key=order)
            ],
        }

    def to_json(self) -> str:
        """Canonical JSON text of :meth:`snapshot` (byte-stable)."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n"
