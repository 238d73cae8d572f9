"""Saving and loading wireless captures.

The monitoring station's frame list is the system's ground truth (the
paper's tcpdump file). These helpers persist it as JSON-lines so a
capture can be archived and re-analyzed later — e.g. replaying
alternative client policies with :mod:`repro.energy.replay` without
re-running the simulation.

A schedule frame stores its schedule under the version-1 key
``schedule_meta`` as ``{"schedule": Schedule.to_json()}``, so captures
saved before the schedule rode on packets as an object still load.
"""

from __future__ import annotations

import json
import pathlib
from typing import Sequence, Union

from repro.errors import SchedulingError, TraceError
from repro.net.sniffer import FrameRecord

#: Format marker written as the first line.
HEADER = {"format": "repro-capture", "version": 1}

PathLike = Union[str, pathlib.Path]


def save_capture(frames: Sequence[FrameRecord], path: PathLike) -> pathlib.Path:
    """Write ``frames`` to ``path`` as JSON-lines (header + one frame/line)."""
    path = pathlib.Path(path)
    with path.open("w") as handle:
        handle.write(json.dumps(HEADER) + "\n")
        for frame in frames:
            handle.write(
                json.dumps(
                    {
                        "start": frame.start,
                        "end": frame.end,
                        "src_ip": frame.src_ip,
                        "src_port": frame.src_port,
                        "dst_ip": frame.dst_ip,
                        "dst_port": frame.dst_port,
                        "proto": frame.proto,
                        "wire_size": frame.wire_size,
                        "payload_size": frame.payload_size,
                        "tos_marked": frame.tos_marked,
                        "broadcast": frame.broadcast,
                        "packet_id": frame.packet_id,
                        "sender": frame.sender,
                        "schedule_meta": (
                            None if frame.schedule is None
                            else {"schedule": frame.schedule.to_json()}
                        ),
                        "cell": frame.cell,
                    }
                )
                + "\n"
            )
    return path


def load_capture(path: PathLike) -> list[FrameRecord]:
    """Read a capture written by :func:`save_capture`."""
    from repro.core.schedule import Schedule

    path = pathlib.Path(path)
    frames: list[FrameRecord] = []
    with path.open() as handle:
        header_line = handle.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{path} is not a repro capture: {exc}") from exc
        if header.get("format") != "repro-capture":
            raise TraceError(f"{path} is not a repro capture")
        if header.get("version") != 1:
            raise TraceError(
                f"unsupported capture version {header.get('version')!r}"
            )
        for line_number, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                meta = raw.pop("schedule_meta", None)
                if meta is not None:
                    raw["schedule"] = Schedule.from_json(meta["schedule"])
                frames.append(FrameRecord(**raw))
            except (ValueError, TypeError, AttributeError, KeyError,
                    SchedulingError) as exc:
                raise TraceError(
                    f"{path}:{line_number}: bad frame record: {exc}"
                ) from exc
    return frames
