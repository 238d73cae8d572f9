"""Unified fault/drop accounting.

Every component that discards, mangles or withholds a packet reports it
here under a dotted key (``"link.dropped"``, ``"faults.blackout"``,
…). One :class:`FaultCounters` instance is shared across a whole
scenario, so the experiment report can show exactly where traffic went
missing — replacing the previous mix of per-object attributes and
trace-only conventions.
"""

from __future__ import annotations


class FaultCounters:
    """A shared registry of named event counters."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def incr(self, key: str) -> int:
        """Add one to ``key`` and return the new total."""
        total = self._counts.get(key, 0) + 1
        self._counts[key] = total
        return total

    def get(self, key: str) -> int:
        """Current count for ``key`` (0 if never incremented)."""
        return self._counts.get(key, 0)

    def totals(self) -> dict[str, int]:
        """All counters, sorted by key (a copy; safe to mutate)."""
        return dict(sorted(self._counts.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._counts.items()))
        return f"FaultCounters({inner})"
