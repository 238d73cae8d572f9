"""The monitoring station — a promiscuous wireless sniffer.

The paper ran tcpdump on a dedicated laptop and fed the capture to a
postmortem simulator. :class:`MonitoringStation` plays the same role: a
promiscuous station on the wireless medium that records every frame it
hears as a :class:`FrameRecord`. The energy analyzer
(:mod:`repro.energy.analyzer`) consumes this capture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.net.medium import WirelessMedium
from repro.net.node import Node
from repro.net.packet import Packet
from repro.sim.core import Simulator

if TYPE_CHECKING:  # pragma: no cover - importing net/ never imports core/
    from repro.core.schedule import Schedule


@dataclass(slots=True, unsafe_hash=True)
class FrameRecord:
    """One captured wireless frame (a tcpdump line, in spirit).

    ``start``/``end`` bracket the frame's airtime; energy attribution
    charges receive power for that interval to the addressed client.
    Treat records as immutable — the class is not ``frozen`` only
    because the frozen ``__setattr__`` detour made the per-frame
    capture allocation (one per frame heard, ~75k per quick sweep) a
    measurable profile line; ``unsafe_hash`` keeps the frozen variant's
    value hashing.
    """

    start: float
    end: float
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    proto: str
    wire_size: int
    payload_size: int
    tos_marked: bool
    broadcast: bool
    packet_id: int
    sender: str
    #: The broadcast schedule for schedule frames (None for data
    #: frames). A real tcpdump capture contains the schedule bytes; the
    #: postmortem replay (repro.energy.replay) needs them decoded.
    schedule: Optional[Schedule] = None
    #: Campus cell the frame was heard in ("" outside campus runs).
    cell: str = ""


class MonitoringStation(Node):
    """A passive, promiscuous wireless capture station."""

    def __init__(self, sim: Simulator, name: str = "monitor") -> None:
        super().__init__(sim, name, ip="0.0.0.0")
        self.wireless = self.add_interface("wireless")
        self.wireless.promiscuous = True
        self._frames: list[FrameRecord] = []
        self.taps.append(self._capture)
        self._medium: Optional[WirelessMedium] = None

    def attach_to(self, medium: WirelessMedium) -> None:
        """Join the wireless cell in monitor mode."""
        medium.attach(self.wireless)
        self._medium = medium

    def _capture(self, packet: Packet, iface) -> bool:
        end = self.sim.now
        airtime = (
            self._medium.airtime(packet.wire_size)
            if self._medium is not None
            else 0.0
        )
        self._frames.append(
            FrameRecord(
                start=end - airtime,
                end=end,
                src_ip=packet.src.ip,
                src_port=packet.src.port,
                dst_ip=packet.dst.ip,
                dst_port=packet.dst.port,
                proto=packet.proto,
                wire_size=packet.wire_size,
                payload_size=packet.payload_size,
                tos_marked=packet.tos_marked,
                broadcast=packet.is_broadcast,
                packet_id=packet.packet_id,
                sender="",
                schedule=packet.meta.get("schedule"),
                cell=self._medium.cell if self._medium is not None else "",
            )
        )
        return True  # consume: the monitor never forwards or responds

    # -- capture access -------------------------------------------------------

    @property
    def frames(self) -> tuple[FrameRecord, ...]:
        """Every captured frame, in capture order."""
        return tuple(self._frames)

    def bytes_captured(self) -> int:
        """Total wire bytes heard."""
        return sum(frame.wire_size for frame in self._frames)
