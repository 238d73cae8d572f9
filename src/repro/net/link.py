"""Full-duplex point-to-point links (the wired Fast Ethernet segments).

Each direction serializes packets FIFO at the link rate, then delays
them by the propagation latency; an interface's ``channel`` is its
outgoing direction. A drop hook for loss experiments (the paper's
Netfilter/DummyNet runs) judges each packet when it would arrive.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import NetworkError
from repro.faults.counters import FaultCounters
from repro.net.node import Interface
from repro.net.packet import Packet
from repro.sim.core import Simulator
from repro.units import transmit_time

#: Optional per-packet drop predicate.
DropFn = Callable[[Packet], bool]


class _Direction:
    """One direction of a link: FIFO serialization + delayed delivery.

    A FIFO server at a fixed rate needs no queue, only the instant it
    falls idle: a packet's serialization ends at ``max(now, free_at) +
    transmit_time``. ``transmit`` computes that instant, advances
    ``free_at`` to it and schedules the delivery ``latency`` later, so
    each packet costs one heap push. The drop hook runs in the delivery
    callback (DESIGN.md §11 gives the equivalence argument).
    """

    __slots__ = ("link", "dst_iface", "free_at")

    def __init__(self, link: "Link", dst_iface: Interface) -> None:
        self.link = link
        self.dst_iface = dst_iface
        #: When the last packet handed to this direction finishes
        #: serializing.
        self.free_at = 0.0

    def transmit(self, src_iface: Interface, packet: Packet) -> None:
        """Send ``packet`` from ``src_iface``, this direction's sender."""
        link = self.link
        sim = link.sim
        now = sim.now
        start = self.free_at
        done = (start if start > now else now) + transmit_time(
            packet.wire_size, link.rate_bps
        )
        self.free_at = done
        sim.call_at1(done + link.latency, self._deliver, packet)

    def _deliver(self, packet: Packet) -> None:
        link = self.link
        if link.drop is not None and link.drop(packet):
            link.counters.incr(link.drop_key)
            return
        link.packets_delivered += 1
        self.dst_iface.node.on_receive(self.dst_iface, packet)


class Link:
    """A bidirectional point-to-point link between two interfaces.

    Args:
        sim: owning simulator.
        rate_bps: serialization rate in bits per second.
        latency: one-way propagation delay in seconds.
        drop: optional per-packet drop predicate.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        latency: float = 0.0,
        drop: Optional[DropFn] = None,
        counters: Optional[FaultCounters] = None,
        drop_key: str = "link.dropped",
    ) -> None:
        if rate_bps <= 0:
            raise NetworkError(f"link rate must be positive: {rate_bps!r}")
        if latency < 0:
            raise NetworkError(f"negative latency: {latency!r}")
        self.sim = sim
        self.rate_bps = rate_bps
        self.latency = latency
        self.drop = drop
        #: Drops are accounted in a (possibly scenario-shared) counter
        #: registry under ``drop_key``, so links, pipes and the wireless
        #: medium all report through one API.
        self.counters = counters if counters is not None else FaultCounters()
        self.drop_key = drop_key
        self.packets_delivered = 0
        self._ifaces: Optional[tuple[Interface, Interface]] = None

    def attach(self, iface_a: Interface, iface_b: Interface) -> "Link":
        """Connect the two endpoints of this link.

        Both interfaces are checked before either is changed, so a
        rejected call leaves them as it found them.
        """
        if self._ifaces is not None:
            raise NetworkError("link endpoints already attached")
        if iface_a is iface_b:
            raise NetworkError(f"{iface_a!r} cannot be both ends of a link")
        for iface in (iface_a, iface_b):
            if iface.channel is not None:
                raise NetworkError(f"{iface!r} is already attached to a channel")
        iface_a.channel = _Direction(self, iface_b)
        iface_b.channel = _Direction(self, iface_a)
        self._ifaces = (iface_a, iface_b)
        return self
