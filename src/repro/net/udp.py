"""UDP sockets.

Datagram sockets with callback- or queue-style reception. Unreliable by
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
from repro.sim.resources import Store

#: Receive callback signature: (packet) -> None.
RecvCallback = Callable[[Packet], None]


class UdpSocket:
    """A UDP socket bound to a node and local endpoint.

    Args:
        node: owning node.
        port: local port to bind.
        on_receive: optional callback invoked for every datagram; when
            omitted, datagrams are buffered and retrievable with
            :meth:`recv` (an event) or :meth:`try_recv`. A callback
            socket has no buffer: its ``recv``/``try_recv`` raise.
        local_ip: bind address; defaults to the node's address. The
            proxy binds spoofed addresses here (e.g. the server's) to
            receive traffic transparently.
    """

    def __init__(
        self,
        node: Node,
        port: int,
        on_receive: Optional[RecvCallback] = None,
        local_ip: Optional[str] = None,
    ) -> None:
        self.node = node
        self.local = Endpoint(local_ip or node.ip, port)
        self._on_receive = on_receive
        #: Queue-mode receive buffer, created by the first datagram
        #: queued or the first ``recv()``: send-only and callback
        #: sockets never allocate one.
        self._inbox: Optional[Store] = None
        self._closed = False
        self.datagrams_sent = 0
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
        src: Optional[Endpoint] = None,
    ) -> Packet:
        """Send a datagram of ``payload_size`` bytes to ``dst``.

        ``src`` overrides the source endpoint for spoofed sends.
        Returns the packet object (useful for tests and marking).
        """
        if self._closed:
            raise SocketError("sendto on closed socket")
        packet = Packet(
            proto="udp",
            src=src or self.local,
            dst=dst,
            payload_size=payload_size,
            seq=seq,
            meta=dict(meta) if meta else {},
            created_at=self.node.sim.now,
        )
        self.datagrams_sent += 1
        self.bytes_sent += payload_size
        self.node.send_packet(packet)
        return packet

    def broadcast(
        self, payload_size: int, port: int, meta: Optional[dict] = None
    ) -> Packet:
        """Send a link-local broadcast (the proxy's schedule messages)."""
        return self.sendto(payload_size, Endpoint(BROADCAST_IP, port), meta=meta)

    # -- receiving -----------------------------------------------------------

    def matches(self, dst: Endpoint) -> bool:
        """Whether this socket should receive a packet sent to ``dst``."""
        return dst.port == self.local.port and (
            dst.ip == self.local.ip or dst.ip == BROADCAST_IP
        )

    def on_packet(self, packet: Packet) -> None:
        """Upcall from the node's dispatcher."""
        if self._closed:
            return
        self.datagrams_received += 1
        self.bytes_received += packet.payload_size
        if self._on_receive is not None:
            self._on_receive(packet)
        else:
            self._buffer("put").put(packet)

    def recv(self):
        """Event that fires with the next datagram."""
        if self._closed:
            raise SocketError("recv on closed socket")
        return self._buffer("recv").get()

    def try_recv(self) -> Optional[Packet]:
        """Non-waiting receive; None when no datagram is buffered."""
        if self._inbox is not None:
            return self._inbox.try_get()
        self._refuse_callback_mode("try_recv")
        return None

    def _buffer(self, op: str) -> Store:
        """The queue-mode receive buffer, created on first use."""
        if self._inbox is None:
            self._refuse_callback_mode(op)
            self._inbox = Store(self.node.sim)
        return self._inbox

    def _refuse_callback_mode(self, op: str) -> None:
        if self._on_receive is not None:
            raise SocketError(
                f"{op} on a callback-mode socket: datagrams go to its callback"
            )

    def close(self) -> None:
        """Unbind the socket; further sends/recvs raise."""
        if not self._closed:
            self._closed = True
            self.node.unregister_udp(self)
