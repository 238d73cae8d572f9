"""Burst transmission and the packet-marking protocol (paper §3.2.2).

A burst ends with a packet whose IP TOS bit is set; the client sleeps
when it sees it. Marking UDP is trivial (the burster owns the packet).
Marking TCP reproduces the paper's shared-variable protocol between the
bursting thread and the IPQ thread:

* ``sent`` — bytes handed to the client-side socket by the burster,
* ``fwd``  — bytes actually carried by emitted segments (invariant
  ``fwd <= sent``; our hook observes every segment, so it holds by
  construction),
* ``mark`` — the stream offset to mark; set to ``sent`` when the
  burster hands over the last bytes of a burst, and matched against
  each outgoing segment's sequence range — including retransmissions,
  which the paper handles "by comparing sequence numbers".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.core.queues import ClientQueue, QueueEntry
from repro.core.schedule import BurstSlot
from repro.net.packet import Packet
from repro.net.tcp import TcpConnection
from repro.obs.metrics import RATIO_BUCKETS
from repro.obs.recorder import NULL_RECORDER, Recorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node


class MarkingController:
    """Per-connection implementation of the sent/fwd/mark protocol."""

    def __init__(self, connection: TcpConnection) -> None:
        self.connection = connection
        #: bytes handed to the socket, as a stream offset (paper: sent).
        self.sent_offset = connection.app_limit
        #: last stream offset carried by an emitted segment (paper: fwd).
        self.fwd_offset = connection.snd_nxt
        #: stream offsets whose segments get the TOS mark (paper: mark).
        #: Ascending; a scalar would lose a pending mark whenever the
        #: send window stalls a marked hand-off and the next burst's
        #: mark arrives before the stalled bytes ever hit the wire.
        self.mark_offsets: list[int] = []
        self.segments_marked = 0
        connection.on_segment_tx = self._on_segment_tx

    def hand_bytes(self, nbytes: int, mark_last: bool) -> None:
        """Bursting-thread side: write ``nbytes`` into the socket."""
        if nbytes <= 0:
            return
        if mark_last:
            # Mark the final byte of this hand-off. Set *before* send():
            # the socket may emit segments synchronously and the IPQ
            # hook must already know the mark byte when they pass.
            self.mark_offsets.append(self.connection.app_limit + nbytes - 1)
        self.connection.send(nbytes)
        self.sent_offset = self.connection.app_limit

    def _on_segment_tx(self, packet: Packet) -> None:
        """IPQ-thread side: observe (and possibly mark) each segment."""
        self.fwd_offset = max(self.fwd_offset, packet.end_seq)
        offsets = self.mark_offsets
        # Acked mark bytes can never ride another segment, not even a
        # retransmission; unacked ones must stay pending so retransmits
        # of the marked segment are marked again.
        una = self.connection.snd_una
        drop = 0
        while drop < len(offsets) and offsets[drop] < una:
            drop += 1
        if drop:
            del offsets[:drop]
        for offset in offsets:
            if offset >= packet.end_seq:
                break
            if packet.seq <= offset:
                packet.tos_marked = True
                self.segments_marked += 1
                break


class Burster:
    """Transmits one client's burst for a slot and marks its last packet."""

    def __init__(
        self,
        node: "Node",
        obs: Optional[Recorder] = None,
    ):
        self.node = node
        self.obs = obs if obs is not None else NULL_RECORDER
        self._controllers: dict[TcpConnection, MarkingController] = {}
        #: Per client, the (``proxy.bursts``, ``proxy.burst_bytes``) and
        #: the ``proxy.burst_fill_ratio`` handles, each resolved on first
        #: use (see Recorder.resolve_*).
        self._burst_counters: dict[str, tuple[Any, Any]] = {}
        self._fill_ratios: dict[str, Any] = {}

    def controller_for(self, connection: TcpConnection) -> MarkingController:
        """The marking controller for a client-side connection."""
        controller = self._controllers.get(connection)
        if controller is None:
            controller = MarkingController(connection)
            self._controllers[connection] = controller
        return controller

    def forget(self, connection: TcpConnection) -> None:
        """Drop the controller of a closed connection."""
        self._controllers.pop(connection, None)

    def burst(self, queue: ClientQueue, slot: BurstSlot) -> int:
        """Send up to ``slot.bytes_allotted`` bytes from ``queue``.

        Returns the number of payload bytes dispatched. The last unit
        dispatched carries the end-of-burst mark (directly for UDP, via
        the marking protocol for TCP).
        """
        entries = queue.pop_up_to(slot.bytes_allotted)
        entries = [entry for entry in entries if self.is_sendable(entry)]
        sendable = self.window_capped(queue, entries)
        if not sendable:
            return 0
        sent = 0
        for index, (entry, nbytes) in enumerate(sendable):
            last = index == len(sendable) - 1
            if entry.kind == "udp":
                if last:
                    entry.packet.tos_marked = True
                self.node.send_packet(entry.packet)
            else:
                self.controller_for(entry.connection).hand_bytes(
                    nbytes, mark_last=last
                )
            sent += nbytes
        self.obs.event(
            self.node.sim.now, "proxy.burst",
            client=queue.client_ip, bytes=sent, entries=len(entries),
            allotted=slot.bytes_allotted,
        )
        client = queue.client_ip
        counters = self._burst_counters.get(client)
        if counters is None:
            counters = self._burst_counters[client] = (
                self.obs.resolve_counter("proxy.bursts", client=client),
                self.obs.resolve_counter("proxy.burst_bytes", client=client),
            )
        counters[0].inc()
        counters[1].inc(sent)
        if slot.bytes_allotted > 0:
            fill = self._fill_ratios.get(client)
            if fill is None:
                fill = self._fill_ratios[client] = self.obs.resolve_histogram(
                    "proxy.burst_fill_ratio", buckets=RATIO_BUCKETS,
                    client=client,
                )
            fill.observe(min(1.0, sent / slot.bytes_allotted))
        return sent

    @staticmethod
    def window_capped(
        queue: ClientQueue, entries: list[QueueEntry]
    ) -> list[tuple[QueueEntry, int]]:
        """The ``(entry, bytes)`` to send now from ``entries``, in order.

        A TCP credit is only handed over to the extent the socket can
        emit it *right now* (window room): anything buffered inside the
        socket would otherwise dribble out on ACKs after the client's
        slot — usually straight into a sleeping WNIC. The rest of each
        credit goes back to the head of ``queue`` in FIFO order, keeping
        its enqueue stamp.
        """
        leftovers: list[QueueEntry] = []
        sendable: list[tuple[QueueEntry, int]] = []
        for entry in entries:
            if entry.kind == "udp":
                sendable.append((entry, entry.nbytes))
                continue
            conn = entry.connection
            room = max(0, conn.send_window - conn.bytes_in_flight - conn.unsent_bytes)
            chunk = min(entry.nbytes, room)
            if chunk > 0:
                sendable.append((entry, chunk))
            if chunk < entry.nbytes:
                leftovers.append(
                    QueueEntry(
                        "tcp", entry.nbytes - chunk, connection=conn,
                        enqueued_at=entry.enqueued_at,
                    )
                )
        for leftover in reversed(leftovers):
            queue.push_front(leftover)
        return sendable

    @staticmethod
    def is_sendable(entry: QueueEntry) -> bool:
        """False for a credit whose connection closed or is closing."""
        if entry.kind == "udp":
            return True
        connection = entry.connection
        return connection.state not in ("CLOSED",) and connection.fin_offset is None
