"""Hosts and network interfaces.

A :class:`Node` owns one or more :class:`Interface` objects, a routing
table, transport demultiplexing tables (UDP sockets, TCP listeners and
connections) and an ordered list of *taps*. Taps see every packet that
reaches the node before normal processing and may consume it — this is
the mechanism the transparent proxy uses to play the role the paper
implemented with the Linux bridge + IPQ.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import AddressError, NetworkError, SocketError
from repro.net.addr import Endpoint
from repro.net.packet import Packet
from repro.obs.recorder import NULL_RECORDER, Recorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

#: A tap inspects ``(packet, interface)`` and returns True to consume the
#: packet (stop all further processing) or False to let it continue.
Tap = Callable[[Packet, "Interface"], bool]


class Interface:
    """A network attachment point of a node.

    :meth:`send` hands a packet to ``channel``, set on attach: the
    interface's outgoing direction of a :class:`~repro.net.link.Link`,
    or a :class:`~repro.net.medium.WirelessMedium`.
    """

    def __init__(self, node: "Node", name: str) -> None:
        self.node = node
        self.name = name
        self.channel = None  # set by Link.attach / WirelessMedium.attach
        #: Optional gate consulted before the medium delivers a frame
        #: (clients wire this to their WNIC power state).
        self.rx_gate: Optional[Callable[[Packet], bool]] = None
        #: Promiscuous interfaces receive frames regardless of address
        #: (the monitoring station). A wireless medium reads this flag
        #: once, at attach time: set it before attaching, since a
        #: change made while attached takes effect only on re-attach.
        self.promiscuous = False

    def send(self, packet: Packet) -> None:
        """Hand ``packet`` to the attached channel for transmission."""
        if self.channel is None:
            raise NetworkError(
                f"interface {self.node.name}/{self.name} is not attached"
            )
        self.channel.transmit(self, packet)

    def can_receive(self, packet: Packet) -> bool:
        """Whether a frame arriving now would actually be heard."""
        if self.rx_gate is not None and not self.rx_gate(packet):
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Interface {self.node.name}/{self.name}>"


class Node:
    """A host: addresses, interfaces, routing, transport dispatch."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        ip: str,
        obs: Optional[Recorder] = None,
    ) -> None:
        if not ip:
            raise AddressError("node needs an ip")
        self.sim = sim
        self.name = name
        self.ip = ip
        self.obs = obs if obs is not None else NULL_RECORDER
        self.interfaces: dict[str, Interface] = {}
        self.forwarding = False
        self.taps: list[Tap] = []
        #: Observers notified of every packet this node originates
        #: (client daemons use this to wake the WNIC for transmissions).
        self.tx_observers: list[Callable[[Packet], None]] = []
        self._routes: dict[str, Interface] = {}
        self._default_route: Optional[Interface] = None
        # transport demux tables
        self.udp_sockets: dict[int, list] = {}  # port -> [UdpSocket]
        self.tcp_listeners: dict[int, object] = {}  # port -> TcpListener
        self.tcp_connections: dict[tuple[Endpoint, Endpoint], object] = {}
        # counters useful for tests and reports
        self.packets_sent = 0
        self.packets_received = 0
        self.packets_forwarded = 0
        self.packets_dropped_no_route = 0
        self.packets_dropped_no_handler = 0

    # -- topology -------------------------------------------------------------

    def add_interface(self, name: str) -> Interface:
        """Create an interface called ``name`` on this node."""
        if name in self.interfaces:
            raise NetworkError(f"duplicate interface {name!r} on {self.name}")
        iface = Interface(self, name)
        self.interfaces[name] = iface
        return iface

    def add_route(self, dst_ip: str, iface: Interface) -> None:
        """Route packets for ``dst_ip`` out of ``iface``."""
        self._routes[dst_ip] = iface

    def remove_route(self, dst_ip: str) -> None:
        """Drop the specific route for ``dst_ip`` (no-op if absent)."""
        self._routes.pop(dst_ip, None)

    def set_default_route(self, iface: Interface) -> None:
        """Fallback interface for destinations without a specific route."""
        self._default_route = iface

    def route_for(self, dst_ip: str) -> Optional[Interface]:
        """The interface used to reach ``dst_ip`` (None if unroutable)."""
        return self._routes.get(dst_ip, self._default_route)

    # -- sending ----------------------------------------------------------------

    def send_packet(self, packet: Packet) -> bool:
        """Route and transmit ``packet``; returns False if unroutable."""
        for observer in self.tx_observers:
            observer(packet)
        iface = self.route_for(packet.dst.ip)
        if iface is None:
            self.packets_dropped_no_route += 1
            self.obs.event(
                self.sim.now, "node.drop.no-route", node=self.name,
                dst=packet.dst.ip,
            )
            return False
        self.packets_sent += 1
        iface.send(packet)
        return True

    # -- receiving --------------------------------------------------------------

    def on_receive(self, iface: Interface, packet: Packet) -> None:
        """Entry point for every frame delivered to this node."""
        for tap in self.taps:
            if tap(packet, iface):
                return
        if packet.is_broadcast or packet.dst.ip == self.ip:
            self.packets_received += 1
            self.dispatch_transport(packet)
        elif self.try_dispatch(packet):
            self.packets_received += 1
        elif self.forwarding:
            self.forward(iface, packet)
        else:
            self.packets_dropped_no_handler += 1

    def forward(self, in_iface: Interface, packet: Packet) -> None:
        """Forward a transit packet toward its destination."""
        out_iface = self.route_for(packet.dst.ip)
        if out_iface is None or out_iface is in_iface:
            self.packets_dropped_no_route += 1
            return
        self.packets_forwarded += 1
        out_iface.send(packet)

    # -- transport demux -----------------------------------------------------------

    def try_dispatch(self, packet: Packet) -> bool:
        """Dispatch ``packet`` to a matching local socket, if any.

        Unlike :meth:`dispatch_transport` this does not require the
        destination address to be this node's — it matches spoofed TCP
        connections too (the proxy's client-side sockets are keyed by
        the *server's* endpoint).
        """
        if packet.proto == "tcp":
            conn = self.tcp_connections.get((packet.dst, packet.src))
            if conn is not None:
                conn.on_packet(packet)
                return True
            listener = self.tcp_listeners.get(packet.dst.port)
            if listener is not None and packet.dst.ip == self.ip:
                listener.on_packet(packet)
                return True
            return False
        sockets = self.udp_sockets.get(packet.dst.port)
        if not sockets or not (packet.is_broadcast or packet.dst.ip == self.ip):
            return False
        for socket in list(sockets):
            socket.on_packet(packet)
        return True

    def dispatch_transport(self, packet: Packet) -> None:
        """Deliver a packet addressed to this node (or broadcast)."""
        if not self.try_dispatch(packet):
            self.packets_dropped_no_handler += 1
            self.obs.event(
                self.sim.now, "node.drop.no-handler", node=self.name,
                proto=packet.proto, dst_port=packet.dst.port,
            )

    # -- socket registration ---------------------------------------------------------

    def register_udp(self, socket) -> None:
        """Register a UDP socket for its bound port."""
        self.udp_sockets.setdefault(socket.local.port, []).append(socket)

    def unregister_udp(self, socket) -> None:
        """Remove a UDP socket registration."""
        sockets = self.udp_sockets.get(socket.local.port, [])
        if socket in sockets:
            sockets.remove(socket)

    def register_tcp_connection(self, conn) -> None:
        """Register a TCP connection keyed by (local, remote) endpoints."""
        key = (conn.local, conn.remote)
        if key in self.tcp_connections:
            raise SocketError(f"duplicate TCP connection {key} on {self.name}")
        self.tcp_connections[key] = conn

    def unregister_tcp_connection(self, conn) -> None:
        """Remove a TCP connection registration."""
        self.tcp_connections.pop((conn.local, conn.remote), None)

    def register_tcp_listener(self, listener) -> None:
        """Register a TCP listener on its port."""
        if listener.port in self.tcp_listeners:
            raise SocketError(
                f"duplicate TCP listener on port {listener.port} on {self.name}"
            )
        self.tcp_listeners[listener.port] = listener

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Node {self.name} ip={self.ip}>"
