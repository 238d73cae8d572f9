"""UDP sockets.

Datagram sockets with callback-style reception. Unreliable by
construction: links, the medium and sleeping WNICs drop datagrams and
nobody retransmits — exactly the behaviour the paper's video streams
(and schedule broadcasts) rely on.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SocketError
from repro.net.addr import BROADCAST_IP, Endpoint
from repro.net.node import Node
from repro.net.packet import Packet

#: Receive callback signature: (packet) -> None.
RecvCallback = Callable[[Packet], None]


class UdpSocket:
    """A UDP socket bound to a node and local endpoint.

    Args:
        node: owning node.
        port: local port to bind.
        on_receive: optional callback invoked for every datagram; when
            omitted, datagrams are counted and dropped (a send-only
            socket).
    """

    def __init__(
        self,
        node: Node,
        port: int,
        on_receive: Optional[RecvCallback] = None,
    ) -> None:
        self.node = node
        self.local = Endpoint(node.ip, port)
        self._on_receive = on_receive
        self._closed = False
        self.datagrams_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        node.register_udp(self)

    # -- sending ------------------------------------------------------------

    def sendto(
        self,
        payload_size: int,
        dst: Endpoint,
        seq: int = 0,
        meta: Optional[dict] = None,
    ) -> Packet:
        """Send a datagram of ``payload_size`` bytes to ``dst``.

        Returns the packet object (useful for tests and marking).
        """
        if self._closed:
            raise SocketError("sendto on closed socket")
        packet = Packet(
            proto="udp",
            src=self.local,
            dst=dst,
            payload_size=payload_size,
            seq=seq,
            meta=dict(meta) if meta else {},
            created_at=self.node.sim.now,
        )
        self.bytes_sent += payload_size
        self.node.send_packet(packet)
        return packet

    def broadcast(
        self, payload_size: int, port: int, meta: Optional[dict] = None
    ) -> Packet:
        """Send a link-local broadcast (the proxy's schedule messages)."""
        return self.sendto(payload_size, Endpoint(BROADCAST_IP, port), meta=meta)

    # -- receiving -----------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        """Upcall from the node's dispatcher."""
        if self._closed:
            return
        self.datagrams_received += 1
        self.bytes_received += packet.payload_size
        if self._on_receive is not None:
            self._on_receive(packet)

    def close(self) -> None:
        """Unbind the socket; further sends raise."""
        if not self._closed:
            self._closed = True
            self.node.unregister_udp(self)
