"""Wire format for the runtime proxy's control datagrams.

Schedules and burst-end marks travel as single JSON datagrams on each
client's UDP control socket, and heartbeats travel back. The schedule
is the simulator's own :class:`~repro.core.schedule.Schedule` in its
JSON codec, tagged ``"type": "schedule"`` like the marks and
heartbeats. Timestamps are the proxy's ``loop.time()`` values; clients
use only relative offsets, exactly like the simulated adaptive delay
compensation. The CONNECT status lines live here too.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.core.schedule import Schedule, json_count, json_text
from repro.errors import SchedulingError


def _loads_object(payload: bytes, what: str) -> dict:
    """Parse a JSON object, rejecting scalars/arrays/garbage bytes."""
    try:
        raw = json.loads(payload)
    except (ValueError, UnicodeDecodeError) as exc:
        raise SchedulingError(f"bad {what} datagram: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchedulingError(
            f"{what} datagram must be a JSON object, got {type(raw).__name__}"
        )
    return raw


def encode_schedule(schedule: Schedule) -> bytes:
    """The schedule datagram: the schedule's JSON codec plus its type tag.

    Clients parse it once with :func:`decode_control` and hand the
    object to :meth:`Schedule.from_json`.
    """
    return json.dumps({"type": "schedule", **schedule.to_json()}).encode()


def encode_mark(client_id: str, seq: int) -> bytes:
    """The out-of-band end-of-burst mark (TOS-bit substitute)."""
    return json.dumps({"type": "mark", "client_id": client_id, "seq": seq}).encode()


def encode_heartbeat(client_id: str, seq: int) -> bytes:
    """A client→proxy liveness heartbeat.

    Clients answer every schedule datagram with one of these, so the
    proxy observes uplink liveness even when the TCP data path is idle
    (the live analog of the simulated proxy's passive ``last_uplink``
    bridging signal). A vanished client stops heartbeating and ages out
    of the schedule.
    """
    return json.dumps(
        {"type": "heartbeat", "client_id": client_id, "seq": seq}
    ).encode()


def decode_heartbeat(payload: bytes) -> tuple[str, int]:
    """Parse a heartbeat datagram into ``(client_id, seq)``."""
    raw = _loads_object(payload, "heartbeat")
    if raw.get("type") != "heartbeat":
        raise SchedulingError(f"not a heartbeat datagram: {raw.get('type')!r}")
    return json_text(raw, "client_id"), json_count(raw, "seq")


# -- CONNECT status lines ----------------------------------------------------
#
# After the client's CONNECT header the proxy answers with exactly one
# status line before any relayed bytes: ``OK\n`` once the origin dial
# succeeded, or ``ERR <reason>\n`` (overloaded, bad-connect,
# origin-unreachable) right before closing. The explicit line lets a
# client distinguish "proxy shed my connection" from "origin sent
# nothing" — the admission-control contract the demo protocol lacked.

STATUS_OK = b"OK\n"


def encode_status_error(reason: str) -> bytes:
    """The refusal status line for ``reason`` (a single token)."""
    if not reason or any(c.isspace() for c in reason):
        raise SchedulingError(f"status reason must be one token: {reason!r}")
    return f"ERR {reason}\n".encode()


def decode_status_line(line: bytes) -> Optional[str]:
    """Parse a CONNECT status line.

    Returns ``None`` for success (``OK``) or the refusal reason string;
    raises :class:`SchedulingError` for anything malformed.
    """
    text = line.decode("ascii", errors="replace").strip()
    if text == "OK":
        return None
    parts = text.split()
    if len(parts) == 2 and parts[0] == "ERR":
        return parts[1]
    raise SchedulingError(f"bad CONNECT status line: {line!r}")


def decode_control(payload: bytes) -> dict:
    """Parse any control datagram (schedule or mark) into its object."""
    raw = _loads_object(payload, "control")
    if not isinstance(raw.get("type"), str):
        raise SchedulingError("control datagram missing string 'type'")
    return raw
