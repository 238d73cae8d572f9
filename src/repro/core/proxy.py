"""The transparent proxy (paper §3.2.2, Figure 3).

A bridge node between the server LAN and the access point. Its packet
tap plays the role of Linux IPQ:

* **UDP downlink** (server → client) is intercepted and buffered in the
  client's queue; the buffered packet keeps the server's source address,
  so when the burster later transmits it the client still believes it
  came straight from the server.
* **TCP** connections are *split*: an intercepted client SYN spawns a
  client-side connection bound to the **server's** endpoint (spoofed)
  and a server-side connection bound to the **client's** endpoint
  (spoofed), per the 8-step dance of Figure 3. Data arriving on the
  server side becomes byte credits in the client queue; the burster
  hands them to the client-side socket during the client's slot.
* Everything else (client → server traffic, ACKs of spoofed flows)
  either matches one of the spoofed sockets or is bridged through.

Transparency needs no header rewriting: both halves of a split are
bound to the spoofed endpoints, so the wireless capture only ever shows
server/client addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Protocol, Sequence

from repro.core.burster import Burster
from repro.core.queues import ClientQueue, QueueEntry
from repro.core.schedule import SCHEDULE_PORT, Schedule
from repro.errors import ConfigurationError
from repro.net.addr import BROADCAST_IP, Endpoint
from repro.net.node import Interface, Node
from repro.net.packet import Packet, TcpFlags
from repro.net.tcp import TcpConnection
from repro.net.udp import UdpSocket
from repro.obs.recorder import Recorder
from repro.sim.core import Event, Simulator
from repro.units import ms

#: How the proxy handles TCP: "split" (the paper's design: terminated +
#: spoofed double connections), "passthrough" (buffer and burst the
#: end-to-end connection's data segments — the rejected design, kept
#: for the ablation), or "bridge" (TCP flows through untouched).
TCP_MODES = ("split", "passthrough", "bridge")


class SchedulerLike(Protocol):
    """Any proxy-side scheduling policy: one simulation process."""

    def run(self) -> Iterator[Event]: ...


class ChannelStateProvider(Protocol):
    """Anything that can report a client's current channel state.

    Structurally matched by :class:`repro.net.channel.ChannelModel`
    (kept as a Protocol so :mod:`repro.core` never imports
    :mod:`repro.net.channel`).
    """

    def state_good(self, client_ip: str, now: float) -> bool: ...


@dataclass
class SplitConnection:
    """A spliced client/server connection pair."""

    client_ep: Endpoint
    server_ep: Endpoint
    client_side: TcpConnection
    server_side: TcpConnection
    server_closed: bool = False
    client_closed: bool = False
    #: Request bytes received from the client before the server side
    #: finished its handshake.
    pending_request_bytes: int = 0
    #: Application metadata seen in client request segments, re-stamped
    #: onto relayed server-side segments (the DES stand-in for the
    #: payload bytes a real proxy forwards verbatim).
    request_meta: dict = field(default_factory=dict)


class TransparentProxy(Node):
    """The power-aware scheduling proxy."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip: str,
        client_ips: set[str],
        tcp_mode: str = "split",
        obs: Optional[Recorder] = None,
    ) -> None:
        """Args:
        tcp_mode: one of :data:`TCP_MODES`.
        """
        super().__init__(sim, name, ip, obs=obs)
        if not client_ips:
            raise ConfigurationError("proxy needs at least one client ip")
        if tcp_mode not in TCP_MODES:
            raise ConfigurationError(f"unknown tcp_mode: {tcp_mode!r}")
        self.tcp_mode = tcp_mode
        self.client_ips = set(client_ips)
        self.forwarding = True
        self.lan = self.add_interface("lan")  # toward the servers
        self.air = self.add_interface("air")  # toward the access point
        self.add_route(BROADCAST_IP, self.air)
        self.taps.append(self._intercept)
        self.burster = Burster(self, obs=self.obs)
        self._queues: dict[str, ClientQueue] = {}
        #: Cached ``sorted(self._queues.items())``; invalidated whenever
        #: a queue is created or released, so the per-interval iteration
        #: stops re-sorting an unchanged client population.
        self._sorted_queues: Optional[list[tuple[str, ClientQueue]]] = None
        self._splits: dict[tuple[Endpoint, Endpoint], SplitConnection] = {}
        #: Per-client view of ``_splits`` so post-burst bookkeeping is
        #: O(own splits), not O(all splits) — the difference between
        #: O(1) and O(clients) work per burst slot at 1k+ clients.
        self._splits_by_client: dict[str, list[SplitConnection]] = {}
        self._client_conns: dict[str, list[TcpConnection]] = {}
        self._schedule_socket = UdpSocket(self, SCHEDULE_PORT)
        self.scheduler: Optional[SchedulerLike] = None  # via attach_scheduler()
        #: Optional per-client channel model (see
        #: :mod:`repro.net.channel`): the proxy's window into each
        #: client's current channel state, consulted by channel-aware
        #: scheduling policies. None means every client reads as good.
        self.channel: Optional[ChannelStateProvider] = None
        self.udp_packets_intercepted = 0
        self.tcp_connections_split = 0
        #: Last simulated time any uplink packet from each client was
        #: seen. The proxy bridges every client→server packet (TCP ACKs,
        #: video feedback), so this is a passive liveness signal the
        #: slot planner judges silent clients by.
        self.last_uplink: dict[str, float] = {}

    # -- wiring ------------------------------------------------------------

    def attach_scheduler(self, scheduler: SchedulerLike) -> None:
        """Install the scheduling policy (Dynamic or Static)."""
        if self.scheduler is not None:
            raise ConfigurationError("proxy already has a scheduler")
        self.scheduler = scheduler

    def start(self) -> None:
        """Launch the scheduling process."""
        if self.scheduler is None:
            raise ConfigurationError("attach a scheduler before start()")
        self.sim.process(self.scheduler.run())

    def wire_routes(self, lan_side_ips: set[str]) -> None:
        """Route server addresses out the LAN side; clients out the air side."""
        for ip in sorted(lan_side_ips):
            self.add_route(ip, self.lan)
        for ip in sorted(self.client_ips):
            self.add_route(ip, self.air)

    # -- queues -------------------------------------------------------------

    def queue_for(self, client_ip: str) -> ClientQueue:
        """The (lazily created) queue of one client."""
        queue = self._queues.get(client_ip)
        if queue is None:
            queue = ClientQueue(client_ip, clock=lambda: self.sim.now)
            self._queues[client_ip] = queue
            self._sorted_queues = None
        return queue

    def channel_state(self, client_ip: str) -> bool:
        """Current channel state of one client (True = good).

        The scheduler's observability hook: with no channel model
        installed every client reads as good, which makes the
        channel-aware policies collapse onto the paper's dynamic one.
        """
        if self.channel is None:
            return True
        return self.channel.state_good(client_ip, self.sim.now)

    def queue_delay_totals(self) -> tuple[float, int]:
        """(byte-seconds of queueing, bytes dequeued) across all queues."""
        delay = sum(q.delay_byte_s for q in self._queues.values())
        dequeued = sum(q.dequeued_bytes for q in self._queues.values())
        return delay, dequeued

    def iter_queues(self) -> list[tuple[str, ClientQueue]]:
        """(ip, queue) pairs in a deterministic order.

        The sorted list is cached until the client population changes;
        callers must treat it as read-only.
        """
        queues = self._sorted_queues
        if queues is None:
            queues = self._sorted_queues = sorted(self._queues.items())
        return queues

    def scheduling_backlog_by_kind(self, client_ip: str) -> tuple[int, int]:
        """(udp_bytes, tcp_bytes) the schedule must reserve time for: the
        queue plus any data already written into client-side sockets but
        not yet acknowledged (unsent or in flight). Without the in-socket
        part a client whose window-buffered tail still needs delivering
        would silently drop out of the schedule and sleep through the
        retransmissions (§3.2.2's bandwidth-constraint discussion).

        The split matters for slot sizing: every TCP segment on the
        downlink elicits ACK airtime on the shared half-duplex medium,
        so TCP bytes cost more channel time than UDP bytes.
        """
        queue = self.queue_for(client_ip)
        udp_bytes = queue.udp_bytes_pending
        tcp_bytes = queue.tcp_bytes_pending
        for conn in self._client_conns.get(client_ip, ()):
            if conn.state != "CLOSED":
                tcp_bytes += conn.unsent_bytes + conn.bytes_in_flight
        return udp_bytes, tcp_bytes

    def kick_stalled(self, client_ip: str, stall_threshold_s: float = ms(50)) -> int:
        """Retransmit-now for this client's stalled connections.

        Called at the start of the client's burst slot. A connection
        with unacknowledged data and no recent forward progress is
        stuck in loss recovery whose retransmissions (RTO-timed,
        exponentially backed off) would land while the client sleeps;
        resending the whole outstanding window *inside* the slot
        resynchronizes recovery with the schedule. Returns the number
        of connections kicked.
        """
        kicked = 0
        now = self.sim.now
        for conn in self._client_conns.get(client_ip, ()):
            if (
                conn.state not in ("CLOSED",)
                and conn.bytes_in_flight > 0
                and (
                    conn.retries > 0
                    or now - conn.last_progress_at > stall_threshold_s
                )
            ):
                conn.retransmit_all()
                kicked += 1
        return kicked

    @property
    def peak_buffered_bytes(self) -> int:
        """High-water mark of simultaneous buffering (memory claim, §3.2.2)."""
        return sum(queue.peak_bytes for queue in self._queues.values())

    # -- schedule broadcast -----------------------------------------------------

    def broadcast_schedule(self, schedule: Schedule) -> None:
        """Send the schedule as a UDP broadcast (via the AP).

        The packet carries the frozen schedule itself: every client
        that hears the broadcast reads this one object.
        """
        self._schedule_socket.broadcast(
            schedule.wire_payload, SCHEDULE_PORT, meta={"schedule": schedule}
        )
        self.obs.event(
            self.sim.now, "proxy.schedule",
            seq=schedule.seq, slots=len(schedule.slots),
            interval=schedule.interval,
        )
        self.obs.counter("proxy.schedules_broadcast").inc()

    # -- interception (the IPQ analog) -----------------------------------------------

    def _intercept(self, packet: Packet, iface: Interface) -> bool:
        if packet.src.ip in self.client_ips:
            self.last_uplink[packet.src.ip] = self.sim.now
        if packet.proto == "tcp":
            return self._intercept_tcp(packet, iface)
        return self._intercept_udp(packet, iface)

    def _intercept_udp(self, packet: Packet, iface: Interface) -> bool:
        if packet.is_broadcast or packet.dst.ip == self.ip:
            return False  # local delivery path handles it
        if iface is self.lan and packet.dst.ip in self.client_ips:
            self.udp_packets_intercepted += 1
            self.queue_for(packet.dst.ip).push_udp(packet)
            return True
        return False  # uplink and transit traffic is bridged

    def _intercept_tcp(self, packet: Packet, iface: Interface) -> bool:
        if self.tcp_mode == "bridge":
            return False
        if self.tcp_mode == "passthrough":
            # The rejected design: hold the end-to-end connection's data
            # segments and burst them on schedule. Control packets
            # (handshake, ACKs, FINs) bridge through untouched.
            if (
                iface is self.lan
                and packet.dst.ip in self.client_ips
                and packet.payload_size > 0
            ):
                self.queue_for(packet.dst.ip).push_udp(packet)
                return True
            return False
        # Existing spoofed sockets (client- or server-side) first.
        if (packet.dst, packet.src) in self.tcp_connections:
            self.tcp_connections[(packet.dst, packet.src)].on_packet(packet)
            return True
        if (
            TcpFlags.SYN in packet.flags
            and TcpFlags.ACK not in packet.flags
            and packet.src.ip in self.client_ips
        ):
            self._split_connection(packet)
            return True
        return False

    # -- connection splitting (Figure 3) ------------------------------------------

    def _split_connection(self, syn: Packet) -> None:
        client_ep, server_ep = syn.src, syn.dst
        key = (client_ep, server_ep)
        if key in self._splits:
            return  # duplicate SYN for a split in progress
        self.tcp_connections_split += 1

        # Steps 2-3: terminate the client's connection here, speaking
        # with the server's address.
        client_side = TcpConnection(
            self, local=server_ep, remote=client_ep, state="SYN_RCVD"
        )
        # The proxy→client hop is one wireless cell with a ~2 ms RTT and
        # the burst slot (sized by the calibrated cost model) is already
        # the pacing authority. Slow-starting here would dribble a burst
        # out over several RTTs, letting one connection's tail segments
        # trail another connection's marked packet — so the client-side
        # socket sends at the full advertised window from the start.
        client_side.cwnd = client_side.peer_rwnd
        client_side.ssthresh = client_side.peer_rwnd
        # Steps 5-6: open our own connection to the server, speaking
        # with the client's address.
        server_side = TcpConnection.connect(
            self,
            remote=server_ep,
            local_port=client_ep.port,
            local_ip=client_ep.ip,
        )
        split = SplitConnection(
            client_ep=client_ep,
            server_ep=server_ep,
            client_side=client_side,
            server_side=server_side,
        )
        self._splits[key] = split
        self._splits_by_client.setdefault(client_ep.ip, []).append(split)
        self.queue_for(client_ep.ip)  # ensure the client is schedulable
        self._client_conns.setdefault(client_ep.ip, []).append(client_side)

        client_side.on_data = lambda n, p, s=split: self._on_client_request(s, n, p)
        client_side.on_close = lambda c, s=split: self._on_client_close(s)
        server_side.on_segment_tx = lambda p, s=split: p.meta.update(s.request_meta)
        server_side.on_data = lambda n, p, s=split: self._on_server_data(s, n)
        server_side.on_close = lambda c, s=split: self._on_server_close(s)
        server_side.on_established = lambda c, s=split: self._on_server_ready(s)

        # Pre-create the marking controller so every data segment to the
        # client runs through the IPQ marking hook.
        self.burster.controller_for(client_side)
        # Feed the original SYN into the client-side connection (step 3:
        # it answers with a spoofed SYN-ACK). Delivered via _handle_syn,
        # exactly as TcpListener does for a fresh passive open.
        client_side._handle_syn(syn)

    # -- split plumbing --------------------------------------------------------

    def _on_client_request(
        self, split: SplitConnection, nbytes: int, packet: Packet
    ) -> None:
        """Client → server request bytes: relay upstream."""
        for key, value in packet.meta.items():
            split.request_meta.setdefault(key, value)
        if split.server_side.state == "ESTABLISHED":
            split.server_side.send(nbytes)
        else:
            split.pending_request_bytes += nbytes

    def _on_server_ready(self, split: SplitConnection) -> None:
        if split.pending_request_bytes:
            split.server_side.send(split.pending_request_bytes)
            split.pending_request_bytes = 0

    def _on_server_data(self, split: SplitConnection, nbytes: int) -> None:
        """Server → client data: buffer as credits for the next burst."""
        self.queue_for(split.client_ep.ip).push_tcp(split.client_side, nbytes)

    def _on_server_close(self, split: SplitConnection) -> None:
        split.server_closed = True
        self._maybe_finish(split)

    def _on_client_close(self, split: SplitConnection) -> None:
        if split.client_closed:
            return
        split.client_closed = True
        if split.server_side.state not in ("CLOSED",):
            split.server_side.close()
        self._teardown_if_done(split)

    def _maybe_finish(self, split: SplitConnection) -> None:
        """Close the client side once all buffered credits were handed over."""
        if not split.server_closed:
            return
        queue = self.queue_for(split.client_ep.ip)
        remaining = queue.bytes_pending_for(split.client_side)
        if remaining == 0 and split.client_side.fin_offset is None:
            if split.client_side.state not in ("CLOSED",):
                split.client_side.close()
            self._teardown_if_done(split)

    def finish_drained_splits(self, client_ip: str) -> None:
        """Called after each burst: progress half-closed splits."""
        for split in list(self._splits_by_client.get(client_ip, ())):
            if split.server_closed:
                self._maybe_finish(split)

    def _teardown_if_done(self, split: SplitConnection) -> None:
        key = (split.client_ep, split.server_ep)
        if (
            split.client_side.state == "CLOSED"
            and split.server_side.state == "CLOSED"
            and key in self._splits
        ):
            del self._splits[key]
            client_splits = self._splits_by_client.get(split.client_ep.ip, [])
            if split in client_splits:
                client_splits.remove(split)
            conns = self._client_conns.get(split.client_ep.ip, [])
            if split.client_side in conns:
                conns.remove(split.client_side)
            self.burster.forget(split.client_side)

    # -- shard migration (campus handoffs) ---------------------------------------

    def release_client(self, client_ip: str) -> tuple[list[QueueEntry], int]:
        """Strip every piece of per-client state for a shard handoff.

        Reserved for :class:`repro.campus.handoff.HandoffCoordinator`
        (enforced by analysis rule CAM001): cross-shard state must move
        through the coordinator so the shard-membership invariant stays
        checkable in one place.

        TCP splits do not survive a handoff — both spoofed connections
        are aborted and their buffered credits counted as dropped — so
        the return value is ``(surviving UDP entries in FIFO order,
        TCP bytes dropped)``.
        """
        self.client_ips.discard(client_ip)
        self.remove_route(client_ip)
        self.last_uplink.pop(client_ip, None)
        queue = self._queues.pop(client_ip, None)
        self._sorted_queues = None
        tcp_dropped = 0
        for split in self._splits_by_client.pop(client_ip, []):
            # Detach the teardown callbacks first: aborting one side
            # must not re-enter the normal close plumbing (which would
            # resurrect the queue we just popped).
            split.client_side.on_close = None
            split.server_side.on_close = None
            split.server_side.on_established = None
            if queue is not None:
                tcp_dropped += queue.drop_connection(split.client_side)
            tcp_dropped += (
                split.client_side.unsent_bytes
                + split.client_side.bytes_in_flight
            )
            split.client_side.abort()
            split.server_side.abort()
            self.burster.forget(split.client_side)
            self._splits.pop((split.client_ep, split.server_ep), None)
        self._client_conns.pop(client_ip, None)
        if queue is None:
            return [], tcp_dropped
        entries = []
        for entry in queue._entries:
            if entry.kind == "udp":
                entries.append(entry)
            else:
                tcp_dropped += entry.nbytes
        return entries, tcp_dropped

    def adopt_client(
        self, client_ip: str, entries: Sequence[QueueEntry] = ()
    ) -> None:
        """Adopt a roamed-in client and its migrated queue entries.

        Reserved for the handoff coordinator (analysis rule CAM001).
        """
        self.client_ips.add(client_ip)
        self.add_route(client_ip, self.air)
        queue = self.queue_for(client_ip)
        for entry in entries:
            queue.absorb(entry)
