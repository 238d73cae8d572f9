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
from repro.core.client import SimDriver
from repro.core.daemon import ClientMachine
from repro.core.schedule import SCHEDULE_HEADER_BYTES, SLOT_ENTRY_BYTES
from repro.errors import SchedulingError
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.udp import UdpSocket
from repro.obs.recorder import Recorder
from repro.sim.core import Event
from repro.units import ms, us
from repro.wnic.states import Wnic

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.proxy import TransparentProxy

#: UDP port the static layout is announced on (distinct from the
#: dynamic SCHEDULE_PORT so one client implementation cannot confuse
#: the two).
STATIC_LAYOUT_PORT = 9798
#: Poll spacing while a client waits for the layout and its epoch.
LAYOUT_POLL_S = ms(5)
#: How long past its slot's end a client keeps waiting for the mark.
SLOT_GRACE_S = ms(10)
#: No data this long into the slot means it is empty this interval and
#: the client sleeps early (the proxy sends at the slot's very start).
NOSHOW_GRACE_S = ms(8)
#: Client state: awake through the interval's TCP slot.
TCP_SLOT = "tcp-slot"
#: Idle lead between the TCP slot (or the interval start) and the first
#: UDP slot.
GUARD_S = ms(2)
#: Idle gap after each UDP slot.
SLOT_GAP_S = us(500)


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
) -> StaticLayout:
    """Equal per-client UDP slots after an optional leading TCP slot.

    The layout's epoch is 0.0 until the scheduler fixes it at its
    second announcement.
    """
    if not 0.0 <= tcp_weight < 1.0:
        raise SchedulingError(f"tcp_weight must be in [0,1): {tcp_weight!r}")
    tcp_slot_s = interval_s * tcp_weight
    udp_window = interval_s - tcp_slot_s - GUARD_S
    n = len(client_ips)
    if n == 0:
        raise SchedulingError("static layout needs at least one client")
    per_client = udp_window / n - SLOT_GAP_S
    if per_client <= 0:
        raise SchedulingError("interval too small for the client count")
    slots = []
    cursor = tcp_slot_s + GUARD_S
    for ip in client_ips:
        slots.append(StaticSlot(client_ip=ip, offset=cursor, duration=per_client))
        cursor += per_client + SLOT_GAP_S
    return StaticLayout(
        interval=interval_s,
        tcp_slot_s=tcp_slot_s,
        tcp_clients=tuple(tcp_clients),
        slots=tuple(slots),
        epoch=0.0,
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
                burster = self.proxy.burster
                entries = [
                    entry for entry in queue.pop_up_to(budget, kind="tcp")
                    if burster.is_sendable(entry)
                ]
                for entry, chunk in burster.window_capped(queue, entries):
                    burster.controller_for(entry.connection).hand_bytes(
                        chunk, mark_last=False
                    )
                    budget -= chunk
                self.proxy.finish_drained_splits(ip)
        for slot in layout.slots:
            at = start + slot.offset
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            if self.proxy.obs.record_spans:
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


class StaticClient(ClientMachine):
    """Client daemon for the static layout: no schedule wake-ups. Only
    the layout walk is its own (:mod:`repro.core.daemon` has the rest)."""

    def __init__(
        self,
        node: Node,
        wnic: Wnic,
        early_s: float = ms(6),
        obs: Optional[Recorder] = None,
    ) -> None:
        super().__init__(node.ip, obs if obs is not None else node.obs)
        self.early_s = early_s
        self._layout: Optional[StaticLayout] = None
        self._layout_anchor = 0.0
        self.bursts_received = 0
        self.early_wait_s = 0.0
        SimDriver(self, node, wnic)
        UdpSocket(node, STATIC_LAYOUT_PORT, on_receive=self._on_layout)

    def _on_layout(self, packet: Packet) -> None:
        self._layout = packet.meta["static_layout"]
        # Anchor on the proxy's epoch: the delay from the proxy's clock to
        # the client is small and constant-ish; the early amount absorbs it.
        self._layout_anchor = self._layout.epoch

    # -- the layout walk ---------------------------------------------------

    def on_start(self, now: float) -> None:
        self.driver.wake()
        self._poll(now)

    def _poll(self, now: float) -> None:
        """Poll until the layout and its epoch have arrived."""
        layout = self._layout
        if layout is None or layout.epoch == 0.0:
            self._wait(LAYOUT_POLL_S, self._poll)
            return
        self._walk = layout
        self._slot = layout.slot_for(self.client)
        self._in_tcp = self.client in layout.tcp_clients
        self._interval_index = 0
        self._plan_interval(now)

    def _plan_interval(self, now: float) -> None:
        """This interval's reservations: the TCP slot, then the client's
        own UDP slot, each as (wake target, end, is the UDP slot)."""
        layout = self._walk
        start = self._layout_anchor + self._interval_index * layout.interval
        events: list[tuple[float, float, bool]] = []
        if self._in_tcp and layout.tcp_slot_s > 0:
            events.append((start, start + layout.tcp_slot_s, False))
        if self._slot is not None:
            slot_start = start + self._slot.offset
            events.append((slot_start, slot_start + self._slot.duration, True))
        events.sort()
        self._events = events
        self._event_index = 0
        self._next_event(now)

    def _next_event(self, now: float) -> None:
        if self._event_index < len(self._events):
            wake_target = self._events[self._event_index][0]
            self.sleep_until(now, wake_target - self.early_s, self._at_event)
            return
        self._interval_index += 1
        if self._events:
            self._plan_interval(now)
            return
        next_start = self._layout_anchor + self._interval_index * self._walk.interval
        self.sleep_until(now, next_start - self.early_s, self._plan_interval)

    def _at_event(self, now: float) -> None:
        wake_target, end_target, udp_slot = self._events[self._event_index]
        self._woke_at = now
        if udp_slot:
            self.burst_first_frame = None
            self.await_burst(
                now, end_target + SLOT_GRACE_S,
                wake_target + NOSHOW_GRACE_S, self._event_done,
            )
        elif end_target > now:
            # TCP slot: awake for the whole reservation.
            self.state = TCP_SLOT
            self._wait(end_target - now, lambda t: self._event_done(False, t))
        else:
            self._event_done(False, now)

    def _event_done(self, got_mark: bool, now: float) -> None:
        if got_mark:
            self.bursts_received += 1
        wake_target = self._events[self._event_index][0]
        self.early_wait_s += max(0.0, min(now, wake_target) - self._woke_at)
        self._event_index += 1
        self._next_event(now)
