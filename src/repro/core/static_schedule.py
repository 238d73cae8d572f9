"""The static TDMA schedule (paper §4.3, "Comparison to static schedules").

Instead of broadcasting a fresh schedule every interval, the proxy
broadcasts one *permanent* layout: each client owns a fixed slot at a
fixed offset in every interval. Clients then never wake for schedule
messages — the savings the paper measures for identical-fidelity
streams — but the layout cannot adapt when fidelities differ.

For Figure 7 the layout additionally carves a fixed **TCP slot** out of
the head of every interval: all TCP-carrying clients must keep their
WNIC in high-power mode for the whole TCP slot (so TCP latency is
bounded), and the slot's size is a knob — the paper sweeps TCP weights
of roughly 10 %, 33 % and 56 % of the interval.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.core.bandwidth_model import LinearCostModel
from repro.core.schedule import SCHEDULE_HEADER_BYTES, SLOT_ENTRY_BYTES
from repro.core.txguard import TransmitWakeGuard
from repro.errors import SchedulingError
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.udp import UdpSocket
from repro.obs.recorder import Recorder
from repro.sim.core import Event
from repro.sim.trace import TraceRecorder
from repro.units import ms, us
from repro.wnic.states import Wnic

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.proxy import TransparentProxy

#: UDP port the static layout is announced on (distinct from the
#: dynamic SCHEDULE_PORT so one client implementation cannot confuse
#: the two).
STATIC_LAYOUT_PORT = 9798


@dataclass(frozen=True, slots=True)
class StaticSlot:
    """One client's permanent per-interval reservation."""

    client_ip: str
    offset: float  # from interval start
    duration: float


@dataclass(frozen=True, slots=True)
class StaticLayout:
    """The permanent schedule: interval, TCP slot, per-client UDP slots."""

    interval: float
    tcp_slot_s: float
    tcp_clients: tuple[str, ...]
    slots: tuple[StaticSlot, ...]
    epoch: float  # proxy time of interval 0's start

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise SchedulingError(f"bad interval: {self.interval!r}")
        if not 0 <= self.tcp_slot_s < self.interval:
            raise SchedulingError("tcp slot must fit inside the interval")

    def slot_for(self, client_ip: str) -> Optional[StaticSlot]:
        """This client's permanent slot, or None."""
        for slot in self.slots:
            if slot.client_ip == client_ip:
                return slot
        return None


def build_layout(
    client_ips: Sequence[str],
    interval_s: float,
    tcp_weight: float = 0.0,
    tcp_clients: Sequence[str] = (),
    guard_s: float = ms(2),
    slot_gap_s: float = us(500),
    epoch: float = 0.0,
) -> StaticLayout:
    """Equal per-client UDP slots after an optional leading TCP slot."""
    if not 0.0 <= tcp_weight < 1.0:
        raise SchedulingError(f"tcp_weight must be in [0,1): {tcp_weight!r}")
    tcp_slot_s = interval_s * tcp_weight
    udp_window = interval_s - tcp_slot_s - guard_s
    n = len(client_ips)
    if n == 0:
        raise SchedulingError("static layout needs at least one client")
    per_client = udp_window / n - slot_gap_s
    if per_client <= 0:
        raise SchedulingError("interval too small for the client count")
    slots = []
    cursor = tcp_slot_s + guard_s
    for ip in client_ips:
        slots.append(StaticSlot(client_ip=ip, offset=cursor, duration=per_client))
        cursor += per_client + slot_gap_s
    return StaticLayout(
        interval=interval_s,
        tcp_slot_s=tcp_slot_s,
        tcp_clients=tuple(tcp_clients),
        slots=tuple(slots),
        epoch=epoch,
    )


class StaticScheduler:
    """Proxy-side executor of a permanent TDMA layout."""

    def __init__(
        self,
        proxy: "TransparentProxy",
        cost_model: LinearCostModel,
        layout: StaticLayout,
    ) -> None:
        self.proxy = proxy
        self.cost_model = cost_model
        self.layout = layout
        self._announce_socket = UdpSocket(proxy, STATIC_LAYOUT_PORT)
        self.intervals_run = 0

    def run(self) -> Iterator[Event]:
        """The proxy-side process: announce once, then serve every interval."""
        sim = self.proxy.sim
        layout = self.layout
        payload = SCHEDULE_HEADER_BYTES + SLOT_ENTRY_BYTES * len(layout.slots)
        self._announce_socket.broadcast(
            payload, STATIC_LAYOUT_PORT, meta={"static_layout": layout}
        )
        # Interval 0 starts one interval after the announcement.
        epoch = sim.now + layout.interval
        self.layout = replace(layout, epoch=epoch)
        # Re-announce with the fixed epoch so clients can anchor to it.
        self._announce_socket.broadcast(
            payload, STATIC_LAYOUT_PORT, meta={"static_layout": self.layout}
        )
        while True:
            start = epoch + self.intervals_run * layout.interval
            if start > sim.now:
                yield sim.timeout(start - sim.now)
            self.proxy.obs.span(
                start, start + layout.interval, "interval", "proxy",
                index=self.intervals_run, static=True,
            )
            yield from self._serve_interval(start)
            self.intervals_run += 1

    def _serve_interval(self, start: float):
        sim = self.proxy.sim
        layout = self.layout
        if layout.tcp_slot_s > 0:
            budget = self.cost_model.bytes_for(layout.tcp_slot_s)
            for ip in layout.tcp_clients:
                if budget <= 0:
                    break
                self.proxy.kick_stalled(
                    ip, stall_threshold_s=1.5 * layout.interval
                )
                queue = self.proxy.queue_for(ip)
                entries = queue.pop_up_to(budget, kind="tcp")
                for entry in entries:
                    conn = entry.connection
                    if conn.state == "CLOSED" or conn.fin_offset is not None:
                        continue
                    room = max(
                        0, conn.send_window - conn.bytes_in_flight - conn.unsent_bytes
                    )
                    chunk = min(entry.nbytes, room)
                    if chunk > 0:
                        self.proxy.burster.controller_for(conn).hand_bytes(
                            chunk, mark_last=False
                        )
                        budget -= chunk
                    if chunk < entry.nbytes:
                        from repro.core.queues import QueueEntry

                        queue.push_front(
                            QueueEntry(
                                "tcp", entry.nbytes - chunk, connection=conn
                            )
                        )
                self.proxy.finish_drained_splits(ip)
        for slot in layout.slots:
            at = start + slot.offset
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            self.proxy.obs.span(
                at, at + slot.duration, "slot",
                f"client {slot.client_ip}", static=True,
            )
            queue = self.proxy.queue_for(slot.client_ip)
            allotment = self.cost_model.bytes_for(slot.duration)
            entries = queue.pop_up_to(allotment, kind="udp")
            for index, entry in enumerate(entries):
                if index == len(entries) - 1:
                    entry.packet.tos_marked = True
                self.proxy.send_packet(entry.packet)


class StaticClient:
    """Client daemon for the static layout: no schedule wake-ups."""

    def __init__(
        self,
        node: Node,
        wnic: Wnic,
        early_s: float = ms(6),
        min_sleep_gap_s: float = ms(4),
        slot_grace_s: float = ms(10),
        trace: Optional[TraceRecorder] = None,
        wireless_iface: str = "wl0",
        obs: Optional[Recorder] = None,
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.wnic = wnic
        self.early_s = early_s
        self.min_sleep_gap_s = min_sleep_gap_s
        self.slot_grace_s = slot_grace_s
        if obs is not None:
            self.obs = obs
        elif trace is not None:
            self.obs = Recorder.wrap(trace)
        else:
            self.obs = node.obs
        self.trace = self.obs.trace if trace is None else trace
        node.interfaces[wireless_iface].rx_gate = wnic.can_receive
        self._tx_guard = TransmitWakeGuard(node, wnic)
        self._layout: Optional[StaticLayout] = None
        self._layout_anchor = 0.0
        self._mark_waiter = None
        self._slot_first_frame: Optional[float] = None
        #: If no data shows up this long into the slot, the slot is
        #: empty this interval and the client sleeps early. (With a
        #: static schedule the proxy sends a client's burst at the very
        #: start of its slot, so a no-show is decisive quickly.)
        self.noshow_grace_s = ms(8)
        node.taps.insert(0, self._watch_frames)
        UdpSocket(node, STATIC_LAYOUT_PORT, on_receive=self._on_layout)
        self.bursts_received = 0
        self.early_wait_s = 0.0
        self.sim.process(self._run())

    def _watch_frames(self, packet: Packet, iface) -> bool:
        if packet.dst.ip != self.node.ip:
            return False
        if packet.payload_size > 0 and self._slot_first_frame is None:
            self._slot_first_frame = self.sim.now
        if packet.tos_marked and self._mark_waiter is not None:
            waiter, self._mark_waiter = self._mark_waiter, None
            if not waiter.triggered:
                waiter.succeed(True)
        return False

    def _on_layout(self, packet: Packet) -> None:
        self._layout = packet.meta["static_layout"]
        # Anchor on arrival: epoch is a proxy timestamp, but the offset
        # between broadcast time and arrival is small and constant-ish.
        self._layout_anchor = self._layout.epoch

    def _run(self):
        sim = self.sim
        self.wnic.wake()
        while self._layout is None or self._layout.epoch == 0.0:
            yield sim.timeout(0.005)
        layout = self._layout
        my_slot = layout.slot_for(self.node.ip)
        in_tcp = self.node.ip in layout.tcp_clients
        interval_index = 0
        while True:
            start = self._layout_anchor + interval_index * layout.interval
            events: list[tuple[float, float, bool]] = []
            if in_tcp and layout.tcp_slot_s > 0:
                events.append((start, start + layout.tcp_slot_s, False))
            if my_slot is not None:
                slot_start = start + my_slot.offset
                events.append(
                    (slot_start, slot_start + my_slot.duration, True)
                )
            events.sort()
            for wake_target, end_target, udp_slot in events:
                yield from self._sleep_until(wake_target - self.early_s)
                wake_time = sim.now
                if udp_slot:
                    self._slot_first_frame = None
                    got = yield from self._await_mark(
                        end_target + self.slot_grace_s,
                        noshow_deadline=wake_target + self.noshow_grace_s,
                    )
                    if got:
                        self.bursts_received += 1
                else:
                    # TCP slot: awake for the whole reservation.
                    if end_target > sim.now:
                        yield sim.timeout(end_target - sim.now)
                self.early_wait_s += max(0.0, min(
                    sim.now, wake_target
                ) - wake_time)
            interval_index += 1
            next_start = self._layout_anchor + interval_index * layout.interval
            if not events:
                yield from self._sleep_until(next_start - self.early_s)

    def _await_mark(self, deadline: float, noshow_deadline: Optional[float] = None):
        if deadline <= self.sim.now:
            return False
        waiter = self.sim.event()
        self._mark_waiter = waiter
        if noshow_deadline is not None and noshow_deadline < deadline:
            # Phase 1: give the burst a short window to show up at all.
            if noshow_deadline > self.sim.now:
                first = self.sim.timeout(noshow_deadline - self.sim.now)
                yield self.sim.any_of([waiter, first])
                if waiter.processed:
                    return bool(waiter.value)
            if self._slot_first_frame is None:
                self._mark_waiter = None
                return False  # empty slot this interval: sleep early
        timeout = self.sim.timeout(deadline - self.sim.now)
        yield self.sim.any_of([waiter, timeout])
        if waiter.processed:
            return bool(waiter.value)
        self._mark_waiter = None
        return False

    def _sleep_until(self, wake_at: float):
        yield from self._tx_guard.sleep_until(wake_at, self.min_sleep_gap_s)
