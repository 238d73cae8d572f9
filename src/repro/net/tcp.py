"""Simplified but real TCP.

Implements the subset of TCP the paper's evaluation depends on:

* three-way handshake (SYN / SYN-ACK / ACK) and FIN teardown,
* byte-stream sequence numbers with MSS segmentation,
* cumulative ACKs and a fixed advertised receive window,
* slow start / congestion avoidance, fast retransmit on 3 dup-ACKs,
* retransmission timeout with Jacobson/Karels RTT estimation, Karn's
  rule, and exponential backoff.

Payload bytes are never materialized — segments carry byte *counts* and
stream offsets, so a retransmission is just a packet re-describing a
byte range. Applications interact through ``send(nbytes)`` plus
``on_data``/``on_established``/``on_close`` callbacks.

Two hooks exist purely for the transparent proxy:

* connections can be created with **spoofed local endpoints**, so the
  proxy's client-side socket speaks with the server's address
  (paper §3.2.2, Figure 3), and
* an ``on_segment_tx`` hook lets the proxy's IPQ thread analog mark the
  IP TOS bit of the segment that carries the last byte of a burst
  (the paper's packet-marking protocol).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConnectionError_, SocketError
from repro.net.addr import Endpoint
from repro.units import ms
from repro.net.node import Node
from repro.net.packet import MSS, Packet, TcpFlags

#: Connection states (string constants keep reprs readable).
CLOSED = "CLOSED"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_SENT = "FIN_SENT"
FIN_RCVD = "FIN_RCVD"

#: Advertised receive window in bytes (every peer's window).
RWND = 64 * 1024
#: Initial congestion window (segments), per the era's common default.
INITIAL_CWND_SEGMENTS = 2
#: Initial slow-start threshold.
INITIAL_SSTHRESH = 64 * 1024
#: Retransmission timer bounds and initial value (seconds).
RTO_MIN = 0.2
RTO_MAX = 60.0
RTO_INITIAL = 1.0
#: Give up after this many consecutive RTO expirations.
MAX_RETRIES = 10
#: Delayed-ACK policy (RFC 1122): ACK at least every second full
#: segment, or after this timer.
DELAYED_ACK_S = ms(40)


class TcpListener:
    """A passive socket accepting connections on a port."""

    def __init__(
        self,
        node: Node,
        port: int,
        on_accept: Callable[["TcpConnection"], None],
    ) -> None:
        self.node = node
        self.port = port
        self.on_accept = on_accept
        node.register_tcp_listener(self)

    def on_packet(self, packet: Packet) -> None:
        """Handle a packet addressed to the listening port (expects SYN)."""
        if TcpFlags.SYN not in packet.flags or TcpFlags.ACK in packet.flags:
            return  # stray packet for a connection we no longer track
        conn = TcpConnection(
            self.node,
            local=packet.dst,
            remote=packet.src,
            state=SYN_RCVD,
        )
        conn._handle_syn(packet)
        self.on_accept(conn)


class TcpConnection:
    """One endpoint of a (possibly spoofed) TCP connection."""

    def __init__(
        self,
        node: Node,
        local: Endpoint,
        remote: Endpoint,
        state: str = CLOSED,
        on_data: Optional[Callable[[int, Packet], None]] = None,
        on_established: Optional[Callable[["TcpConnection"], None]] = None,
        on_close: Optional[Callable[["TcpConnection"], None]] = None,
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.local = local
        self.remote = remote
        self.state = state
        self.on_data = on_data
        self.on_established = on_established
        self.on_close = on_close
        #: Hook invoked with every outgoing data segment (proxy marking).
        self.on_segment_tx: Optional[Callable[[Packet], None]] = None

        # -- sender state (byte offsets; SYN consumes offset 0) --
        self.snd_una = 0  # oldest unacknowledged byte
        self.snd_nxt = 0  # next byte to send
        self.app_limit = 1  # stream offset one past last app byte (+1 for SYN)
        self.cwnd = INITIAL_CWND_SEGMENTS * MSS
        self.ssthresh = INITIAL_SSTHRESH
        self.peer_rwnd = RWND
        self.dupacks = 0
        self.fin_offset: Optional[int] = None  # stream offset of our FIN

        # -- receiver state --
        self.rcv_nxt = 0
        self._ooo: list[tuple[int, int]] = []  # out-of-order [start, end)
        self.peer_fin_offset: Optional[int] = None
        self._unacked_segments = 0  # delayed-ACK bookkeeping
        self._delack_generation = 0
        self._delack_armed = False

        #: NewReno fast-recovery state: highest byte outstanding when
        #: fast retransmit fired; partial ACKs below it retransmit the
        #: next hole immediately instead of waiting for an RTO.
        self._recovery_point: Optional[int] = None
        #: SACK scoreboard: sorted disjoint [start, end) ranges above
        #: snd_una the peer has confirmed receiving (RFC 2018).
        self._sacked: list[tuple[int, int]] = []
        #: Start of the hole most recently fast-retransmitted (avoids
        #: re-sending the same hole on every duplicate ACK).
        self._retx_hole_start: Optional[int] = None

        # -- RTT estimation / retransmission --
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = RTO_INITIAL
        self._timer_generation = 0
        self._timer_armed = False
        self._rtt_probe: Optional[tuple[int, float]] = None  # (end_seq, sent_at)
        self.retries = 0

        #: Last time the sender made forward progress (new data sent or
        #: snd_una advanced); the proxy uses it to detect stalls.
        self.last_progress_at = node.sim.now

        # -- stats --
        self.bytes_delivered = 0  # in-order payload handed to the app
        self._closed_notified = False

        node.register_tcp_connection(self)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @classmethod
    def connect(
        cls,
        node: Node,
        remote: Endpoint,
        local_port: Optional[int] = None,
        local_ip: Optional[str] = None,
        **callbacks,
    ) -> "TcpConnection":
        """Actively open a connection to ``remote``.

        ``local_ip`` may spoof a foreign address (proxy server-side
        sockets connect *as the client*).
        """
        port = local_port if local_port is not None else _ephemeral_port(node)
        conn = cls(
            node,
            local=Endpoint(local_ip or node.ip, port),
            remote=remote,
            state=SYN_SENT,
            **callbacks,
        )
        conn._send_control(TcpFlags.SYN, seq=0)
        conn.snd_nxt = 1
        conn._arm_timer()
        return conn

    def send(self, nbytes: int) -> None:
        """Append ``nbytes`` of application data to the stream."""
        if nbytes < 0:
            raise SocketError(f"cannot send negative bytes: {nbytes}")
        if self.state in (FIN_SENT, CLOSED) or self.fin_offset is not None:
            raise SocketError(f"send after close on {self}")
        self.app_limit += nbytes
        self._try_transmit()

    def close(self) -> None:
        """Half-close: send FIN once all buffered data has been sent."""
        if self.fin_offset is not None or self.state == CLOSED:
            return
        self.fin_offset = self.app_limit  # FIN occupies one offset
        self.app_limit += 1
        self._try_transmit()

    def abort(self) -> None:
        """Drop all state immediately (no RST is modelled)."""
        self._teardown()

    @property
    def bytes_in_flight(self) -> int:
        """Unacknowledged bytes currently outstanding."""
        return self.snd_nxt - self.snd_una

    @property
    def send_window(self) -> int:
        """Current usable window (congestion vs flow control)."""
        return min(self.cwnd, self.peer_rwnd)

    @property
    def unsent_bytes(self) -> int:
        """Application bytes buffered but not yet transmitted."""
        return max(0, self.app_limit - self.snd_nxt)

    # ------------------------------------------------------------------
    # Packet handling
    # ------------------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        """Upcall from the node's dispatcher for this connection."""
        if self.state == CLOSED:
            return
        flags = packet.flags

        if TcpFlags.SYN in flags and TcpFlags.ACK in flags:
            self._handle_syn_ack(packet)
            return
        if TcpFlags.SYN in flags:
            self._handle_syn(packet)
            return
        if TcpFlags.ACK in flags:
            self._handle_ack(packet)
        if packet.payload_size > 0 or TcpFlags.FIN in flags:
            self._handle_data(packet)

    # -- handshake ------------------------------------------------------

    def _handle_syn(self, packet: Packet) -> None:
        # Passive open: SYN consumes receiver offset 0. A duplicate SYN
        # (our SYN-ACK was lost) just re-elicits the SYN-ACK.
        if self.state not in (CLOSED, SYN_RCVD, SYN_SENT):
            self._send_ack_now()
            return
        self.rcv_nxt = max(self.rcv_nxt, 1)
        self.state = SYN_RCVD
        self._send_control(TcpFlags.SYN | TcpFlags.ACK, seq=0, ack=self.rcv_nxt)
        self.snd_nxt = max(self.snd_nxt, 1)
        self._arm_timer()

    def _handle_syn_ack(self, packet: Packet) -> None:
        if self.state != SYN_SENT:
            # Duplicate SYN-ACK (our ACK was lost): re-acknowledge.
            self._send_control(TcpFlags.ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
            return
        self.rcv_nxt = 1
        self.snd_una = max(self.snd_una, packet.ack)
        self.state = ESTABLISHED
        self.retries = 0
        self._cancel_timer()
        self._send_control(TcpFlags.ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
        if self.on_established is not None:
            self.on_established(self)
        self._try_transmit()

    # -- ACK processing ------------------------------------------------------

    def _handle_ack(self, packet: Packet) -> None:
        if self.state == SYN_RCVD and packet.ack >= 1:
            self.state = ESTABLISHED
            self.snd_una = max(self.snd_una, 1)
            self.retries = 0
            self._cancel_timer()
            if self.on_established is not None:
                self.on_established(self)

        ack = packet.ack
        if ack > self.snd_nxt:
            return  # acks data we never sent; ignore
        if packet.sack_blocks:
            self._register_sack(packet.sack_blocks)
        if ack > self.snd_una:
            acked = ack - self.snd_una
            self.snd_una = ack
            self.dupacks = 0
            self.retries = 0
            self._retx_hole_start = None
            self._prune_sacked()
            self.last_progress_at = self.sim.now
            self._update_rtt(ack)
            self._grow_cwnd(acked)
            if self._recovery_point is not None:
                if ack >= self._recovery_point:
                    self._recovery_point = None  # recovery complete
                else:
                    # NewReno partial ACK: the next hole starts at the
                    # new snd_una; retransmit it right away.
                    self._retransmit_head()
                    self._arm_timer(restart=True)
            if self.snd_una >= self.snd_nxt:
                self._cancel_timer()
            else:
                self._arm_timer(restart=True)
            # Our FIN was acknowledged?
            if self.fin_offset is not None and ack > self.fin_offset:
                if self.state == FIN_RCVD or self.peer_fin_offset is not None:
                    self._teardown()
                else:
                    self.state = FIN_SENT
        elif ack == self.snd_una and self.bytes_in_flight > 0:
            self.dupacks += 1
            if self.dupacks == 3:
                self._fast_retransmit()
            elif self.dupacks > 3:
                # SACK-based recovery: each further dup-ACK may reveal a
                # new hole; retransmit it once — or re-send the same
                # hole every few dup-ACKs in case the retransmission
                # itself was lost.
                hole = self._first_hole()
                if hole is not None and (
                    hole[0] != self._retx_hole_start
                    or self.dupacks % 4 == 0
                ):
                    self._retx_hole_start = hole[0]
                    self._send_segment(
                        hole[0], hole[1] - hole[0], retransmit=True
                    )
        self._try_transmit()

    def _update_rtt(self, ack: int) -> None:
        if self._rtt_probe is None:
            return
        probe_seq, sent_at = self._rtt_probe
        if ack >= probe_seq:
            sample = self.sim.now - sent_at
            self._rtt_probe = None
            if self.srtt is None:
                self.srtt = sample
                self.rttvar = sample / 2.0
            else:
                alpha, beta = 1.0 / 8.0, 1.0 / 4.0
                self.rttvar = (1 - beta) * self.rttvar + beta * abs(
                    self.srtt - sample
                )
                self.srtt = (1 - alpha) * self.srtt + alpha * sample
            self.rto = min(
                RTO_MAX, max(RTO_MIN, self.srtt + 4.0 * self.rttvar)
            )

    def _grow_cwnd(self, acked: int) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += min(acked, MSS)  # slow start
        else:
            self.cwnd += max(1, MSS * MSS // self.cwnd)  # congestion avoidance

    # -- data reception -----------------------------------------------------

    def _handle_data(self, packet: Packet) -> None:
        start, end = packet.seq, packet.end_seq
        if TcpFlags.FIN in packet.flags:
            self.peer_fin_offset = end
            end += 1  # FIN consumes one offset
        if end <= self.rcv_nxt:
            # Pure duplicate: re-ACK immediately so the sender can make
            # progress.
            self._send_ack_now()
            return
        self._ooo.append((max(start, self.rcv_nxt), end))
        self._ooo.sort()
        advanced = 0
        merged: list[tuple[int, int]] = []
        for seg_start, seg_end in self._ooo:
            if seg_start <= self.rcv_nxt:
                advanced += max(0, seg_end - self.rcv_nxt)
                self.rcv_nxt = max(self.rcv_nxt, seg_end)
            else:
                merged.append((seg_start, seg_end))
        self._ooo = merged
        if advanced > 0:
            data_bytes = advanced
            fin_consumed = (
                self.peer_fin_offset is not None
                and self.rcv_nxt > self.peer_fin_offset
            )
            if fin_consumed:
                data_bytes -= 1
            if data_bytes > 0:
                self.bytes_delivered += data_bytes
                if self.on_data is not None:
                    self.on_data(data_bytes, packet)
            if fin_consumed:
                self._handle_peer_fin()
        # Delayed-ACK policy: gaps (dup-ACK signals), every second
        # in-order segment, FINs and end-of-burst marked packets (the
        # receiver is about to sleep) ACK immediately; a lone in-order
        # segment waits briefly for a sibling.
        self._unacked_segments += 1
        if (
            self._ooo
            or advanced == 0
            or self._unacked_segments >= 2
            or TcpFlags.FIN in packet.flags
            or packet.tos_marked
        ):
            self._send_ack_now()
        else:
            self._arm_delayed_ack()

    def _handle_peer_fin(self) -> None:
        if self.state == FIN_SENT or self.fin_offset is not None:
            # Both sides closing.
            self._teardown()
        else:
            self.state = FIN_RCVD
            if self.on_close is not None and not self._closed_notified:
                self._closed_notified = True
                self.on_close(self)

    # -- transmission -----------------------------------------------------

    def _try_transmit(self) -> None:
        """Send as much buffered data as the window allows."""
        if self.state not in (ESTABLISHED, FIN_RCVD, SYN_RCVD):
            return
        if self.state == SYN_RCVD:
            return  # wait for the handshake to finish
        while True:
            window_room = self.send_window - self.bytes_in_flight
            pending = self.app_limit - self.snd_nxt
            if pending <= 0 or window_room <= 0:
                break
            is_fin_only = (
                self.fin_offset is not None and self.snd_nxt == self.fin_offset
            )
            if is_fin_only:
                self._send_control(
                    TcpFlags.FIN | TcpFlags.ACK,
                    seq=self.snd_nxt,
                    ack=self.rcv_nxt,
                )
                self.snd_nxt += 1
                self._arm_timer()
                break
            limit = self.fin_offset if self.fin_offset is not None else self.app_limit
            chunk = min(MSS, limit - self.snd_nxt, window_room)
            if chunk <= 0:
                break
            self._send_segment(self.snd_nxt, chunk)
            self.snd_nxt += chunk

    def _send_segment(self, seq: int, nbytes: int, retransmit: bool = False) -> None:
        packet = Packet(
            proto="tcp",
            src=self.local,
            dst=self.remote,
            payload_size=nbytes,
            seq=seq,
            ack=self.rcv_nxt,
            flags=TcpFlags.ACK,
            created_at=self.sim.now,
        )
        if not retransmit:
            self.last_progress_at = self.sim.now
            if self._rtt_probe is None:
                # Karn's rule: only time segments sent exactly once.
                self._rtt_probe = (seq + nbytes, self.sim.now)
        if self.on_segment_tx is not None:
            self.on_segment_tx(packet)
        self.node.send_packet(packet)
        self._arm_timer()

    def _send_control(
        self, flags: TcpFlags, seq: int, ack: Optional[int] = None,
        sack_blocks: tuple = (),
    ) -> None:
        packet = Packet(
            proto="tcp",
            src=self.local,
            dst=self.remote,
            payload_size=0,
            seq=seq,
            ack=ack if ack is not None else 0,
            flags=flags,
            sack_blocks=sack_blocks,
            created_at=self.sim.now,
        )
        self.node.send_packet(packet)

    def _send_ack_now(self) -> None:
        self._unacked_segments = 0
        self._delack_generation += 1
        self._delack_armed = False
        self._send_control(
            TcpFlags.ACK, seq=self.snd_nxt, ack=self.rcv_nxt,
            sack_blocks=tuple(self._ooo[:3]),
        )

    def _arm_delayed_ack(self) -> None:
        if self._delack_armed:
            return
        self._delack_armed = True
        self._delack_generation += 1
        generation = self._delack_generation
        self.sim.call_at1(
            self.sim.now + DELAYED_ACK_S, self._on_delack_timer, generation
        )

    def _on_delack_timer(self, generation: int) -> None:
        if generation != self._delack_generation or self.state == CLOSED:
            return
        self._delack_armed = False
        if self._unacked_segments > 0:
            self._send_ack_now()

    # -- retransmission -----------------------------------------------------

    # -- SACK scoreboard -----------------------------------------------------

    def _register_sack(self, blocks) -> None:
        """Merge the peer's SACK blocks into the scoreboard."""
        ranges = list(self._sacked)
        for start, end in blocks:
            start = max(start, self.snd_una)
            end = min(end, self.snd_nxt)
            if start < end:
                ranges.append((start, end))
        ranges.sort()
        merged: list[tuple[int, int]] = []
        for start, end in ranges:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        self._sacked = merged

    def _prune_sacked(self) -> None:
        """Drop scoreboard entries below the cumulative ACK."""
        self._sacked = [
            (max(start, self.snd_una), end)
            for start, end in self._sacked
            if end > self.snd_una
        ]

    def _first_hole(self) -> Optional[tuple[int, int]]:
        """The first unSACKed chunk (≤ MSS) above snd_una, if any."""
        limit = self.fin_offset if self.fin_offset is not None else self.snd_nxt
        cursor = self.snd_una
        for start, end in self._sacked:
            if cursor < start:
                return (cursor, min(start, cursor + MSS, limit))
            cursor = max(cursor, end)
        if cursor < min(self.snd_nxt, limit):
            return (cursor, min(self.snd_nxt, cursor + MSS, limit))
        return None

    def _fast_retransmit(self) -> None:
        self.ssthresh = max(2 * MSS, self.bytes_in_flight // 2)
        self.cwnd = self.ssthresh
        self._recovery_point = self.snd_nxt
        self._retx_hole_start = self.snd_una
        self._retransmit_head()

    def _retransmit_head(self) -> None:
        """Retransmit the oldest unacknowledged, unSACKed chunk."""
        if self.bytes_in_flight <= 0:
            return
        self._rtt_probe = None  # Karn: retransmitted data gives no sample
        if self.state == SYN_SENT:
            self._send_control(TcpFlags.SYN, seq=0)
            return
        if self.state == SYN_RCVD:
            self._send_control(
                TcpFlags.SYN | TcpFlags.ACK, seq=0, ack=self.rcv_nxt
            )
            return
        if self.fin_offset is not None and self.snd_una == self.fin_offset:
            self._send_control(
                TcpFlags.FIN | TcpFlags.ACK, seq=self.snd_una, ack=self.rcv_nxt
            )
            return
        self._prune_sacked()
        hole = self._first_hole()
        if hole is not None and hole[1] > hole[0]:
            self._send_segment(hole[0], hole[1] - hole[0], retransmit=True)

    def retransmit_all(self) -> int:
        """Go-back-N: resend every unacknowledged segment immediately.

        Used by the proxy at the start of a client's burst slot when the
        connection has stalled: with cumulative ACKs a multi-segment
        hole otherwise refills one MSS per recovery round, and each
        round needs the client awake. Returns segments resent.
        """
        if self.state in (CLOSED, SYN_SENT):
            return 0
        self._rtt_probe = None  # Karn's rule
        self._prune_sacked()
        resent = 0
        cursor = self.snd_una
        limit = self.fin_offset if self.fin_offset is not None else self.snd_nxt
        scoreboard = list(self._sacked) + [(min(self.snd_nxt, limit),) * 2]
        for sacked_start, sacked_end in scoreboard:
            while cursor < min(sacked_start, limit):
                chunk = min(MSS, min(sacked_start, limit) - cursor)
                self._send_segment(cursor, chunk, retransmit=True)
                cursor += chunk
                resent += 1
            cursor = max(cursor, sacked_end)
        if self.fin_offset is not None and self.snd_nxt > self.fin_offset:
            self._send_control(
                TcpFlags.FIN | TcpFlags.ACK, seq=self.fin_offset,
                ack=self.rcv_nxt,
            )
            resent += 1
        if resent:
            self._arm_timer(restart=True)
        return resent

    def _on_rto(self, generation: int) -> None:
        if generation != self._timer_generation or self.state == CLOSED:
            return
        self._timer_armed = False
        if self.bytes_in_flight <= 0:
            return
        self.retries += 1
        if self.retries > MAX_RETRIES:
            self._teardown()
            return
        self.ssthresh = max(2 * MSS, self.bytes_in_flight // 2)
        self.cwnd = MSS
        self.rto = min(RTO_MAX, self.rto * 2.0)
        self.dupacks = 0
        self._retransmit_head()
        self._arm_timer(restart=True)

    def _arm_timer(self, restart: bool = False) -> None:
        if self._timer_armed and not restart:
            return
        self._timer_generation += 1
        self._timer_armed = True
        generation = self._timer_generation
        self.sim.call_at1(self.sim.now + self.rto, self._on_rto, generation)

    def _cancel_timer(self) -> None:
        self._timer_generation += 1
        self._timer_armed = False

    # -- teardown -----------------------------------------------------------

    def _teardown(self) -> None:
        if self.state == CLOSED:
            return
        self.state = CLOSED
        self._cancel_timer()
        self.node.unregister_tcp_connection(self)
        if self.on_close is not None and not self._closed_notified:
            self._closed_notified = True
            self.on_close(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TcpConnection {self.local}->{self.remote} {self.state} "
            f"una={self.snd_una} nxt={self.snd_nxt} rcv={self.rcv_nxt}>"
        )


def _ephemeral_port(node: Node) -> int:
    """Allocate a free ephemeral port on ``node``."""
    counter = getattr(node, "_ephemeral_port", 49152)
    for _ in range(16384):
        port = counter
        counter += 1
        if counter >= 65536:
            counter = 49152
        node._ephemeral_port = counter
        if all(local.port != port for (local, _r) in node.tcp_connections):
            return port
    raise ConnectionError_(f"no free ephemeral ports on {node.name}")
