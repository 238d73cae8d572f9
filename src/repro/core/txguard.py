"""Keeping the WNIC awake around the client's own transmissions.

The paper's client daemon controls a real card: whenever the host
*sends* (a TCP SYN opening a connection, an ACK, a receiver report),
the card is necessarily powered. The daemon therefore cannot blindly
sleep through its own activity — in particular, a freshly opened TCP
connection needs the card up to hear the SYN-ACK a few milliseconds
later, long before any schedule or burst would wake it.

:class:`TransmitWakeGuard` encapsulates this: it observes every packet
the node originates, wakes the card for them, keeps it up while any
connection is mid-handshake, and returns it to sleep right after
stray single-shot transmissions (e.g. a UDP receiver report fired from
a timer while the daemon sleeps).
"""

from __future__ import annotations

from repro.core.daemon import HANDSHAKE_POLL_S
from repro.net.node import Node
from repro.net.packet import Packet, TcpFlags
from repro.units import ms
from repro.wnic.states import Wnic

#: How long after a stray (non-handshake) transmission to re-sleep.
RESLEEP_DELAY_S = ms(2)


class TransmitWakeGuard:
    """Wakes the card for the node's own transmissions."""

    def __init__(self, node: Node, wnic: Wnic) -> None:
        self.node = node
        self.sim = node.sim
        self.wnic = wnic
        #: True while the owning daemon is inside a sleep phase.
        self.daemon_sleeping = False
        self.tx_wakes = 0
        node.tx_observers.append(self._on_transmit)

    def busy_connections(self) -> bool:
        """Any local TCP connection mid-handshake or awaiting an ACK?

        Awaiting-an-ACK matters because our own unacknowledged bytes
        (an HTTP request, say) elicit an immediate ACK from the proxy —
        sleeping through it would force an RTO-delayed retransmission.
        """
        return any(
            conn.state in ("SYN_SENT", "SYN_RCVD")
            or (conn.state != "CLOSED" and conn.bytes_in_flight > 0)
            for conn in self.node.tcp_connections.values()
        )

    def _on_transmit(self, packet: Packet) -> None:
        if self.wnic.is_awake:
            return
        self.wnic.wake()
        self.tx_wakes += 1
        is_syn = (
            packet.proto == "tcp"
            and TcpFlags.SYN in packet.flags
            and TcpFlags.ACK not in packet.flags
        )
        if is_syn:
            # Stay up through the handshake/request exchange, then put
            # the card back down if the daemon is still in a sleep phase.
            self.sim.process(self._resleep_when_quiet())
        else:
            # One-shot transmission: go back to sleep shortly, unless a
            # handshake started in the meantime.
            self.sim.call_at(self.sim.now + RESLEEP_DELAY_S, self._maybe_resleep)

    def _resleep_when_quiet(self):
        while self.daemon_sleeping and self.busy_connections():
            yield self.sim.timeout(HANDSHAKE_POLL_S)
        self._maybe_resleep()

    def _maybe_resleep(self) -> None:
        if self.daemon_sleeping and not self.busy_connections():
            self.wnic.sleep()
