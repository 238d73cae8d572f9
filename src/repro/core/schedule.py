"""Schedule messages, burst slots and SRP bookkeeping (paper §3.2.1).

A schedule is broadcast as a UDP packet at each *scheduler rendezvous
point* (SRP). It lists, per active client, a burst slot: the client's
rendezvous point (when its burst starts) and how long the burst lasts.
It also carries the time of the *next* SRP so every client knows when
to wake for the next schedule, whether or not it has a slot now.

All times inside a schedule are proxy-clock timestamps; power-aware
clients never trust them absolutely — they anchor on the schedule's
*arrival* time and use only the relative offsets (see
:mod:`repro.core.delay_comp`).

:class:`Schedule` is the one schedule type from proxy to client, in
the simulator (the frozen object rides on the broadcast packet) and in
the live runtime. :meth:`Schedule.to_json`/:meth:`Schedule.from_json`
are its one JSON codec, used only where a schedule crosses a process
boundary: live control datagrams (:mod:`repro.runtime.wire`) and saved
captures (:mod:`repro.net.capture_io`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import SchedulingError

#: UDP port schedule broadcasts are sent to.
SCHEDULE_PORT = 9797

#: Wire size of a schedule message: fixed header + per-slot entry.
SCHEDULE_HEADER_BYTES = 24
SLOT_ENTRY_BYTES = 16


@dataclass(frozen=True, slots=True)
class BurstSlot:
    """One client's reservation inside a burst interval."""

    #: The client's address in the simulator; the client id in the
    #: live runtime.
    client_ip: str
    rendezvous: float  # absolute proxy time the burst starts (RP_i)
    duration: float  # seconds reserved for this client's burst
    bytes_allotted: int  # payload bytes the proxy intends to send

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise SchedulingError(f"negative slot duration: {self.duration!r}")
        if self.bytes_allotted < 0:
            raise SchedulingError(
                f"negative slot allotment: {self.bytes_allotted!r}"
            )

    @property
    def end(self) -> float:
        """Proxy time the slot's reservation ends."""
        return self.rendezvous + self.duration


@dataclass(frozen=True, slots=True)
class Schedule:
    """A full burst-interval schedule, as broadcast to all clients."""

    seq: int
    srp: float  # proxy time this schedule was broadcast
    next_srp: float  # proxy time the *next* schedule will be broadcast
    slots: tuple[BurstSlot, ...] = ()
    #: Set by the schedule-reuse extension (§5 future work): clients may
    #: skip the next schedule reception and reuse this one's offsets.
    repeats_next: bool = False

    def __post_init__(self) -> None:
        if self.next_srp <= self.srp:
            raise SchedulingError(
                f"next_srp {self.next_srp} must follow srp {self.srp}"
            )
        previous_end = None
        for slot in self.slots:
            if slot.rendezvous < self.srp:
                raise SchedulingError(
                    f"slot for {slot.client_ip} starts before the SRP"
                )
            if previous_end is not None and slot.rendezvous < previous_end - 1e-9:
                raise SchedulingError("slots overlap")
            previous_end = slot.end

    @property
    def interval(self) -> float:
        """The burst interval this schedule covers."""
        return self.next_srp - self.srp

    @property
    def wire_payload(self) -> int:
        """UDP payload bytes of the broadcast message."""
        return SCHEDULE_HEADER_BYTES + SLOT_ENTRY_BYTES * len(self.slots)

    def slot_for(self, client_ip: str) -> Optional[BurstSlot]:
        """This client's slot, or None if it has no traffic this interval."""
        for slot in self.slots:
            if slot.client_ip == client_ip:
                return slot
        return None

    def to_json(self) -> dict[str, Any]:
        """The schedule as a JSON-ready object (:meth:`from_json` inverts it)."""
        return {
            "seq": self.seq,
            "srp": self.srp,
            "next_srp": self.next_srp,
            "repeats_next": self.repeats_next,
            "slots": [
                {
                    "client_ip": slot.client_ip,
                    "rendezvous": slot.rendezvous,
                    "duration": slot.duration,
                    "bytes_allotted": slot.bytes_allotted,
                }
                for slot in self.slots
            ],
        }

    @classmethod
    def from_json(cls, raw: Any) -> "Schedule":
        """Decode a parsed JSON object into a validated schedule.

        Every failure mode — the wrong JSON shape, missing or mistyped
        fields, non-finite times, and anything the schedule's own
        validation refuses (overlapping slots, a slot before the SRP,
        ``next_srp <= srp``) — raises :class:`SchedulingError`. A
        returned schedule is always fully validated; there is no partial
        decode. Missing ``slots`` and ``repeats_next`` default to empty
        and false. Keys the codec does not know are ignored.
        """
        if not isinstance(raw, dict):
            raise SchedulingError(
                f"schedule must be a JSON object, got {type(raw).__name__}"
            )
        slots_raw = raw.get("slots", [])
        if not isinstance(slots_raw, list):
            raise SchedulingError(
                f"field 'slots' must be a list, got {type(slots_raw).__name__}"
            )
        slots = []
        for entry in slots_raw:
            if not isinstance(entry, dict):
                raise SchedulingError(
                    f"slot must be an object, got {type(entry).__name__}"
                )
            slots.append(BurstSlot(
                client_ip=json_text(entry, "client_ip"),
                rendezvous=json_number(entry, "rendezvous"),
                duration=json_number(entry, "duration"),
                bytes_allotted=json_count(entry, "bytes_allotted"),
            ))
        repeats_next = raw.get("repeats_next", False)
        if not isinstance(repeats_next, bool):
            raise SchedulingError(
                f"field 'repeats_next' must be a bool, got {repeats_next!r}"
            )
        return cls(
            seq=json_count(raw, "seq"),
            srp=json_number(raw, "srp"),
            next_srp=json_number(raw, "next_srp"),
            slots=tuple(slots),
            repeats_next=repeats_next,
        )


# -- JSON field validators (shared with the live control datagrams) ----------


def json_number(raw: dict[str, Any], key: str) -> float:
    """A required finite numeric field."""
    value = raw.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchedulingError(f"field {key!r} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise SchedulingError(f"field {key!r} is not finite: {value!r}")
    return value


def json_count(raw: dict[str, Any], key: str) -> int:
    """A required non-negative integer field."""
    value = raw.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchedulingError(f"field {key!r} must be an int, got {value!r}")
    if value < 0:
        raise SchedulingError(f"field {key!r} must be >= 0")
    return value


def json_text(raw: dict[str, Any], key: str) -> str:
    """A required non-empty string field."""
    value = raw.get(key)
    if not isinstance(value, str) or not value:
        raise SchedulingError(
            f"field {key!r} must be a non-empty string, got {value!r}"
        )
    return value
