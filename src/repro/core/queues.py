"""Per-client packet queues (the paper's queuing-thread state).

The proxy buffers everything destined to each client between bursts.
Entries are either ready-made UDP packets (already spoofed with the
server's source address) or TCP byte credits bound to a client-side
connection — the proxy never copies payloads, so TCP data is tracked
as counts exactly like in :mod:`repro.net.tcp`.

Peak occupancy is tracked for the paper's §3.2.2 memory-requirement
claim (≤512 KB at full wireless bandwidth).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import SchedulingError
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.tcp import TcpConnection


@dataclass(slots=True)
class QueueEntry:
    """One buffered unit: a UDP packet or a TCP byte credit."""

    kind: str  # "udp" | "tcp"
    nbytes: int
    packet: Optional[Packet] = None  # udp only
    connection: Optional["TcpConnection"] = None  # tcp only
    #: Simulated time the data entered the queue. Splits and burster
    #: leftovers inherit it, so the delay accounting always sees the
    #: *first* enqueue time.
    enqueued_at: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("udp", "tcp"):
            raise SchedulingError(f"unknown queue entry kind: {self.kind!r}")
        if self.kind == "udp" and self.packet is None:
            raise SchedulingError("udp entry needs a packet")
        if self.kind == "tcp" and self.connection is None:
            raise SchedulingError("tcp entry needs a connection")
        if self.nbytes < 0:
            raise SchedulingError(f"negative entry size: {self.nbytes!r}")


class ClientQueue:
    """FIFO of pending downlink data for one client."""

    def __init__(self, client_ip: str, clock: Callable[[], float]) -> None:
        """Args:
        clock: simulated-time source. Entries are stamped on enqueue and
            the queue accumulates byte-weighted queueing delay on
            dequeue — the mean-delay axis of the policy Pareto front.
        """
        self.client_ip = client_ip
        self.clock = clock
        self._entries: deque[QueueEntry] = deque()
        self.bytes_pending = 0
        self.peak_bytes = 0
        self.total_enqueued_bytes = 0
        self.has_udp = False
        self.has_tcp = False
        #: Per-kind slices of ``bytes_pending``, maintained
        #: incrementally so the scheduler's per-interval backlog split
        #: never scans the deque (O(clients), not O(entries)).
        self.udp_bytes_pending = 0
        self.tcp_bytes_pending = 0
        #: Byte-weighted queueing delay accumulated on dequeue.
        self.delay_byte_s = 0.0
        #: Bytes that have left through :meth:`pop_up_to`.
        self.dequeued_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def empty(self) -> bool:
        """True when no entries are buffered."""
        return not self._entries

    def push_udp(self, packet: Packet) -> None:
        """Buffer a (spoofed) UDP packet for the next burst."""
        self._push(
            QueueEntry(
                "udp", packet.payload_size, packet=packet,
                enqueued_at=self.clock(),
            )
        )
        self.udp_bytes_pending += packet.payload_size
        self.has_udp = True

    def push_tcp(self, connection: "TcpConnection", nbytes: int) -> None:
        """Buffer ``nbytes`` of TCP stream data for ``connection``.

        Consecutive credits for the same connection coalesce, mirroring
        how the paper's proxy reads a byte stream, not packets.
        """
        if nbytes <= 0:
            return
        self.has_tcp = True
        self.tcp_bytes_pending += nbytes
        if (
            self._entries
            and self._entries[-1].kind == "tcp"
            and self._entries[-1].connection is connection
        ):
            self._entries[-1].nbytes += nbytes
            self._account(nbytes)
            return
        self._push(
            QueueEntry(
                "tcp", nbytes, connection=connection,
                enqueued_at=self.clock(),
            )
        )

    def _push(self, entry: QueueEntry) -> None:
        self._entries.append(entry)
        self._account(entry.nbytes)

    def _account(self, nbytes: int) -> None:
        self.bytes_pending += nbytes
        self.total_enqueued_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.bytes_pending)

    def pop_up_to(
        self, byte_budget: int, kind: Optional[str] = None
    ) -> list[QueueEntry]:
        """Dequeue entries totalling at most ``byte_budget`` bytes.

        UDP packets are atomic (never split); TCP credits split freely.
        A UDP packet larger than the remaining budget ends the burst
        (FIFO order is preserved — we do not scan past it).

        ``kind`` restricts popping to "udp" or "tcp" entries: the static
        scheduler (§4.3, Figure 7) serves TCP and UDP in separate slots.
        Filtering skips entries of the other kind without disturbing
        their relative order.
        """
        if byte_budget < 0:
            raise SchedulingError(f"negative byte budget: {byte_budget!r}")
        if kind is None:
            return self._pop_fifo(byte_budget)
        matching = [e for e in self._entries if e.kind == kind]
        others = [e for e in self._entries if e.kind != kind]
        self._entries = deque(matching)
        taken = self._pop_fifo(byte_budget)
        self._entries = deque(list(self._entries) + others)
        return taken

    def _pop_fifo(self, byte_budget: int) -> list[QueueEntry]:
        taken: list[QueueEntry] = []
        remaining = byte_budget
        now = self.clock()
        while self._entries and remaining > 0:
            head = self._entries[0]
            if head.kind == "udp":
                if head.nbytes > remaining and taken:
                    break
                if head.nbytes > remaining:
                    # A single oversized packet still goes (the slot was
                    # sized from this queue, so this only happens for
                    # pathological budgets); send it alone.
                    pass
                self._entries.popleft()
                taken.append(head)
                remaining -= head.nbytes
                self.bytes_pending -= head.nbytes
                self.udp_bytes_pending -= head.nbytes
                self._account_dequeue(head.nbytes, head.enqueued_at, now)
            else:
                chunk = min(head.nbytes, remaining)
                if chunk == head.nbytes:
                    self._entries.popleft()
                    taken.append(head)
                else:
                    head.nbytes -= chunk
                    taken.append(
                        QueueEntry(
                            "tcp", chunk, connection=head.connection,
                            enqueued_at=head.enqueued_at,
                        )
                    )
                remaining -= chunk
                self.bytes_pending -= chunk
                self.tcp_bytes_pending -= chunk
                self._account_dequeue(chunk, head.enqueued_at, now)
        return taken

    def _account_dequeue(
        self, nbytes: int, enqueued_at: float, now: float
    ) -> None:
        self.delay_byte_s += max(0.0, now - enqueued_at) * nbytes
        self.dequeued_bytes += nbytes

    def push_front(self, entry: QueueEntry) -> None:
        """Return an entry to the head of the queue (burster leftovers).

        Used when a burst could not hand a TCP credit to its socket
        (window full): the bytes stay first in line for the next burst.
        """
        self._entries.appendleft(entry)
        self.bytes_pending += entry.nbytes
        if entry.kind == "udp":
            self.udp_bytes_pending += entry.nbytes
        else:
            self.tcp_bytes_pending += entry.nbytes
        self.peak_bytes = max(self.peak_bytes, self.bytes_pending)

    def absorb(self, entry: QueueEntry) -> None:
        """Adopt an entry migrated from another shard's queue (handoff).

        The entry keeps its original ``enqueued_at`` stamp, so queueing
        delay accrued in the old cell still counts when the new cell
        finally drains it.
        """
        self._entries.append(entry)
        self._account(entry.nbytes)
        if entry.kind == "udp":
            self.udp_bytes_pending += entry.nbytes
            self.has_udp = True
        else:
            self.tcp_bytes_pending += entry.nbytes
            self.has_tcp = True

    def bytes_pending_for(self, connection: "TcpConnection") -> int:
        """Buffered credit bytes still queued for ``connection``."""
        return sum(
            entry.nbytes
            for entry in self._entries
            if entry.kind == "tcp" and entry.connection is connection
        )

    def drop_connection(self, connection: "TcpConnection") -> int:
        """Discard credits for a closed connection; returns bytes dropped."""
        dropped = 0
        kept: deque[QueueEntry] = deque()
        for entry in self._entries:
            if entry.kind == "tcp" and entry.connection is connection:
                dropped += entry.nbytes
            else:
                kept.append(entry)
        self._entries = kept
        self.bytes_pending -= dropped
        self.tcp_bytes_pending -= dropped
        return dropped
