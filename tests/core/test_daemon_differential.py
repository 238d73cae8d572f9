"""The client state machine against the generator daemons it replaced.

Identical input scripts go to the machine's simulator drivers
(:class:`PowerAwareClient`, :class:`StaticClient`) and to copies of the
generator-process daemons they replaced, kept below as the reference.
A script holds schedules with and without a slot, reused schedules,
data frames, marks and lost marks, lost broadcasts (missed schedules),
windows where a handshake is busy, and for the static walk layouts
with and without a UDP slot and a TCP slot. Both sides must leave the
same WNIC timeline (times compared with ``==``), the same obs rows,
spans and metrics, and the same counters.

Every input is on the heap before the run starts, so when an input and
a daemon timer fall on one instant the input goes first on both sides.
Tier-1 runs a bounded profile; the ``slow`` variants run a long one.
"""

from dataclasses import dataclass, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.client import PowerAwareClient
from repro.core.delay_comp import AdaptiveCompensator, FixedClockCompensator
from repro.core.schedule import SCHEDULE_PORT, BurstSlot, Schedule
from repro.core.static_schedule import (
    STATIC_LAYOUT_PORT,
    StaticClient,
    build_layout,
)
from repro.core.txguard import TransmitWakeGuard
from repro.errors import SchedulingError
from repro.faults.controller import DriftingCompensator
from repro.net.addr import BROADCAST_IP, Endpoint
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.udp import UdpSocket
from repro.obs import SimRecorder
from repro.sim import RngStreams, Simulator
from repro.units import ms
from repro.wnic import Wnic

CLIENT = "10.0.1.1"
SERVER = Endpoint("10.0.2.1", 5004)
HANDSHAKE_POLL_S = ms(2)


# ---------------------------------------------------------------------------
# The reference: the generator-process daemons the machine replaced
# ---------------------------------------------------------------------------


def reference_sleep_until(guard, wake_at, min_sleep_gap_s):
    """``TransmitWakeGuard.sleep_until`` as it was."""
    sim = guard.sim
    while guard.busy_connections() and sim.now < wake_at:
        yield sim.timeout(min(HANDSHAKE_POLL_S, wake_at - sim.now))
    gap = wake_at - sim.now
    if gap <= 0:
        return
    if gap <= min_sleep_gap_s:
        yield sim.timeout(gap)
        return
    guard.daemon_sleeping = True
    guard.wnic.sleep()
    yield sim.timeout(gap)
    guard.daemon_sleeping = False
    guard.wnic.wake()


class ReferenceClient:
    """The generator ``PowerAwareClient`` (parameters no caller set dropped)."""

    min_sleep_gap_s = ms(4)
    schedule_grace_s = ms(12)
    burst_noshow_s = ms(10)

    def __init__(
        self, node, wnic, compensator, enforce_sleep_drops=True,
        fallback_after_misses=3, obs=None,
    ):
        if fallback_after_misses < 1:
            raise SchedulingError("fallback_after_misses must be >= 1")
        self.node = node
        self.sim = node.sim
        self.wnic = wnic
        self.compensator = compensator
        self.obs = obs if obs is not None else node.obs
        self.fallback_after_misses = fallback_after_misses
        if enforce_sleep_drops:
            node.interfaces["wl0"].rx_gate = wnic.can_receive
        UdpSocket(node, SCHEDULE_PORT, on_receive=self._on_schedule_packet)
        node.taps.insert(0, self._watch_frames)
        self._tx_guard = TransmitWakeGuard(node, wnic)
        self._schedule_waiter = None
        self._mark_waiter = None
        self._pending = None
        self._awaiting_mark = False
        self._burst_first_frame = None
        self.schedules_heard = 0
        self._heard_counter = None
        self.missed_schedules = 0
        self.marks_missed = 0
        self.empty_bursts = 0
        self.bursts_received = 0
        self.early_wait_s = 0.0
        self.miss_recovery_s = 0.0
        self.data_packets_seen = 0
        self.in_fallback = False
        self.fallbacks = 0
        self.resyncs = 0
        self.max_consecutive_misses = 0
        self.sim.process(self._run())

    def _watch_frames(self, packet, iface):
        if packet.dst.ip != self.node.ip:
            return False
        if packet.payload_size > 0:
            self.data_packets_seen += 1
            if self._burst_first_frame is None:
                self._burst_first_frame = self.sim.now
        if packet.tos_marked and self._mark_waiter is not None:
            waiter, self._mark_waiter = self._mark_waiter, None
            if not waiter.triggered:
                waiter.succeed(True)
        return False

    def _on_schedule_packet(self, packet):
        schedule = packet.meta["schedule"]
        arrival = self.sim.now
        self.schedules_heard += 1
        self.compensator.observe_arrival(schedule, arrival)
        self.obs.event(
            arrival, "client.schedule-heard", client=self.node.ip,
            seq=schedule.seq,
        )
        heard = self._heard_counter
        if heard is None:
            heard = self._heard_counter = self.obs.counter(
                "client.schedules_heard", client=self.node.ip
            )
        heard.inc()
        if self._awaiting_mark:
            if self._pending is not None and self._mark_waiter is not None:
                waiter, self._mark_waiter = self._mark_waiter, None
                if not waiter.triggered:
                    waiter.succeed(False)
            self._pending = (schedule, arrival)
            return
        if self._schedule_waiter is not None:
            waiter, self._schedule_waiter = self._schedule_waiter, None
            if not waiter.triggered:
                waiter.succeed((schedule, arrival))
        else:
            self._pending = (schedule, arrival)

    def _run(self):
        self.wnic.wake()
        current = yield from self._await_schedule(deadline=None)
        while True:
            schedule, arrival = current
            repetitions = 2 if schedule.repeats_next else 1
            for repetition in range(repetitions):
                offset = repetition * schedule.interval
                yield from self._burst_phase(
                    schedule, arrival, offset, replay=repetition > 0
                )
            current = yield from self._schedule_phase(
                schedule, arrival, (repetitions - 1) * schedule.interval
            )

    def _burst_phase(self, schedule, arrival, offset, replay=False):
        slot = schedule.slot_for(self.node.ip)
        if slot is None:
            return
        wake_at = self.compensator.burst_wake(schedule, arrival, slot) + offset
        yield from self._sleep_until(wake_at)
        wake_time = self.sim.now
        self._burst_first_frame = None
        self._awaiting_mark = True
        deadline = (
            self.compensator.next_schedule_wake(schedule, arrival) + offset
        )
        noshow = (
            wake_time + self.compensator.early_s + self.burst_noshow_s
            if replay
            else deadline
        )
        got_mark = yield from self._await_mark(deadline, noshow)
        self._awaiting_mark = False
        first = self._burst_first_frame
        self.obs.span(
            wake_time, self.sim.now, "burst", f"client {self.node.ip}",
            got_mark=got_mark, replay=replay, got_data=first is not None,
        )
        if first is not None:
            self.bursts_received += 1
            self.early_wait_s += max(0.0, first - wake_time)
            if not got_mark:
                self.marks_missed += 1
                self.obs.event(
                    self.sim.now, "client.mark-missed", client=self.node.ip,
                )
                self.obs.counter(
                    "client.marks_missed", client=self.node.ip
                ).inc()
        else:
            self.empty_bursts += 1
            self.early_wait_s += max(0.0, self.sim.now - wake_time)

    def _await_mark(self, deadline, noshow_deadline):
        if deadline <= self.sim.now:
            return False
        waiter = self.sim.event()
        self._mark_waiter = waiter
        if noshow_deadline < deadline and noshow_deadline > self.sim.now:
            first = self.sim.timeout(noshow_deadline - self.sim.now)
            yield self.sim.any_of([waiter, first])
            if waiter.processed:
                return bool(waiter.value)
            if self._burst_first_frame is None:
                self._mark_waiter = None
                return False
        timeout = self.sim.timeout(deadline - self.sim.now)
        yield self.sim.any_of([waiter, timeout])
        if waiter.processed:
            return bool(waiter.value)
        self._mark_waiter = None
        return False

    def _schedule_phase(self, schedule, arrival, offset):
        wake_at = (
            self.compensator.next_schedule_wake(schedule, arrival) + offset
        )
        if self._pending is None:
            yield from self._sleep_until(wake_at)
        wake_time = self.sim.now
        predicted = (
            self.compensator.predict_arrival(schedule, arrival) + offset
        )
        result = yield from self._await_schedule(
            deadline=predicted + self.schedule_grace_s
        )
        if result is not None:
            self.early_wait_s += max(0.0, result[1] - wake_time)
            return result
        recovery_start = self.sim.now
        consecutive = 0
        while result is None:
            consecutive += 1
            self.missed_schedules += 1
            self.max_consecutive_misses = max(
                self.max_consecutive_misses, consecutive
            )
            self.obs.event(
                self.sim.now, "client.schedule-missed",
                client=self.node.ip, consecutive=consecutive,
            )
            self.obs.counter(
                "client.schedules_missed", client=self.node.ip
            ).inc()
            if consecutive >= self.fallback_after_misses:
                if not self.in_fallback:
                    self.in_fallback = True
                    self.fallbacks += 1
                    self.obs.event(
                        self.sim.now, "client.fallback",
                        client=self.node.ip, misses=consecutive,
                    )
                    self.obs.counter(
                        "client.fallbacks", client=self.node.ip
                    ).inc()
                result = yield from self._await_schedule(deadline=None)
                break
            predicted += schedule.interval
            result = yield from self._await_schedule(
                deadline=predicted + self.schedule_grace_s
            )
        if self.in_fallback:
            self.in_fallback = False
            self.resyncs += 1
            self.obs.event(self.sim.now, "client.resync", client=self.node.ip)
            self.obs.counter("client.resyncs", client=self.node.ip).inc()
        self.miss_recovery_s += self.sim.now - recovery_start
        return result

    def _await_schedule(self, deadline):
        if self._pending is not None:
            pending, self._pending = self._pending, None
            return pending
        waiter = self.sim.event()
        self._schedule_waiter = waiter
        if deadline is None:
            result = yield waiter
            return result
        if deadline <= self.sim.now:
            self._schedule_waiter = None
            return None
        timeout = self.sim.timeout(deadline - self.sim.now)
        yield self.sim.any_of([waiter, timeout])
        if waiter.processed:
            return waiter.value
        self._schedule_waiter = None
        return None

    def _sleep_until(self, wake_at):
        yield from reference_sleep_until(
            self._tx_guard, wake_at, self.min_sleep_gap_s
        )


class ReferenceStaticClient:
    """The generator ``StaticClient`` (parameters no caller set dropped)."""

    min_sleep_gap_s = ms(4)
    slot_grace_s = ms(10)
    noshow_grace_s = ms(8)

    def __init__(self, node, wnic, early_s=ms(6), obs=None):
        self.node = node
        self.sim = node.sim
        self.wnic = wnic
        self.early_s = early_s
        self.obs = obs if obs is not None else node.obs
        node.interfaces["wl0"].rx_gate = wnic.can_receive
        self._tx_guard = TransmitWakeGuard(node, wnic)
        self._layout = None
        self._layout_anchor = 0.0
        self._mark_waiter = None
        self._slot_first_frame = None
        node.taps.insert(0, self._watch_frames)
        UdpSocket(node, STATIC_LAYOUT_PORT, on_receive=self._on_layout)
        self.bursts_received = 0
        self.early_wait_s = 0.0
        self.sim.process(self._run())

    def _watch_frames(self, packet, iface):
        if packet.dst.ip != self.node.ip:
            return False
        if packet.payload_size > 0 and self._slot_first_frame is None:
            self._slot_first_frame = self.sim.now
        if packet.tos_marked and self._mark_waiter is not None:
            waiter, self._mark_waiter = self._mark_waiter, None
            if not waiter.triggered:
                waiter.succeed(True)
        return False

    def _on_layout(self, packet):
        self._layout = packet.meta["static_layout"]
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
            events = []
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
                    if end_target > sim.now:
                        yield sim.timeout(end_target - sim.now)
                self.early_wait_s += max(0.0, min(
                    sim.now, wake_target
                ) - wake_time)
            interval_index += 1
            next_start = self._layout_anchor + interval_index * layout.interval
            if not events:
                yield from self._sleep_until(next_start - self.early_s)

    def _await_mark(self, deadline, noshow_deadline=None):
        if deadline <= self.sim.now:
            return False
        waiter = self.sim.event()
        self._mark_waiter = waiter
        if noshow_deadline is not None and noshow_deadline < deadline:
            if noshow_deadline > self.sim.now:
                first = self.sim.timeout(noshow_deadline - self.sim.now)
                yield self.sim.any_of([waiter, first])
                if waiter.processed:
                    return bool(waiter.value)
            if self._slot_first_frame is None:
                self._mark_waiter = None
                return False
        timeout = self.sim.timeout(deadline - self.sim.now)
        yield self.sim.any_of([waiter, timeout])
        if waiter.processed:
            return bool(waiter.value)
        self._mark_waiter = None
        return False

    def _sleep_until(self, wake_at):
        yield from reference_sleep_until(
            self._tx_guard, wake_at, self.min_sleep_gap_s
        )


# ---------------------------------------------------------------------------
# Scripts and the harness
# ---------------------------------------------------------------------------


@dataclass
class Script:
    """Inputs for one client: ``(time, packet)`` frames, busy windows."""

    frames: list
    busy: list
    horizon: float
    params: dict


def schedule_packet(schedule):
    return Packet(
        "udp", Endpoint("10.0.2.254", SCHEDULE_PORT),
        Endpoint(BROADCAST_IP, SCHEDULE_PORT), payload_size=40,
        meta={"schedule": schedule},
    )


def layout_packet(layout):
    return Packet(
        "udp", Endpoint("10.0.2.254", STATIC_LAYOUT_PORT),
        Endpoint(BROADCAST_IP, STATIC_LAYOUT_PORT), payload_size=40,
        meta={"static_layout": layout},
    )


def data_packet(marked):
    return Packet(
        "udp", SERVER, Endpoint(CLIENT, 5004), payload_size=700,
        tos_marked=marked,
    )


def burst_frames(draw, start):
    """A burst of 0-4 data frames from ``start``; its last frame carries
    the mark unless the mark is lost."""
    count = draw(st.integers(0, 4))
    mark_lost = draw(st.integers(0, 3)) == 0
    return [
        (start + index * 0.0011, data_packet(index == count - 1 and not mark_lost))
        for index in range(count)
    ]


def busy_windows(draw, horizon):
    return [
        (start, start + length)
        for start, length in draw(st.lists(
            st.tuples(
                st.floats(0.0, horizon, allow_nan=False),
                st.floats(0.0005, 0.05, allow_nan=False),
            ),
            max_size=2,
        ))
    ]


@st.composite
def dynamic_scripts(draw):
    interval = draw(st.sampled_from((0.05, 0.1, 0.2)))
    count = draw(st.integers(1, 8))
    frames = []
    arrival = 0.0
    for seq in range(count):
        srp = 0.01 + seq * interval
        slots = ()
        if draw(st.booleans()):
            offset = draw(st.floats(0.002, 0.5 * interval))
            duration = draw(st.floats(0.001, 0.3 * interval))
            slots = (BurstSlot(CLIENT, srp + offset, duration, 1000),)
        schedule = Schedule(
            seq=seq, srp=srp, next_srp=srp + interval, slots=slots,
            repeats_next=draw(st.integers(0, 3)) == 0,
        )
        # Mostly a short forwarding delay; sometimes a backlog holds the
        # broadcast most of an interval, so the next one (first in,
        # first out) follows it closely and can land mid-burst.
        delay = draw(st.one_of(
            st.floats(0.0002, 0.008), st.floats(0.5 * interval, 1.5 * interval)
        ))
        arrival = max(srp + delay, arrival + 0.0003)
        if draw(st.integers(0, 9)):  # one broadcast in ten is lost
            frames.append((arrival, schedule_packet(schedule)))
        for slot in slots:
            frames += burst_frames(draw, slot.rendezvous + delay)
            if schedule.repeats_next:
                frames += burst_frames(draw, slot.rendezvous + interval + delay)
    horizon = 0.01 + (count + 3) * interval
    for at in draw(st.lists(st.floats(0.0, horizon), max_size=3)):
        frames.append((at, data_packet(False)))
    params = {
        "early_s": draw(st.sampled_from((0.0, ms(2), ms(6), ms(10)))),
        "compensator": draw(st.sampled_from(("adaptive", "drifting", "fixed"))),
        # A fixed-clock client that believes its clock runs ahead wakes
        # late and waits long for marks, so schedules arrive mid-burst.
        "clock_offset_s": draw(st.sampled_from((-0.02, 0.0, 0.15))),
        "gate": draw(st.booleans()),
        "fallback": draw(st.integers(1, 4)),
    }
    return Script(frames, busy_windows(draw, horizon), horizon, params)


@st.composite
def static_scripts(draw):
    interval = draw(st.sampled_from((0.05, 0.1)))
    has_udp = draw(st.booleans())
    in_tcp = draw(st.booleans())
    others = [f"10.0.1.{9 + i}" for i in range(draw(st.integers(0, 3)))]
    udp_ips = others + ([CLIENT] if has_udp else [])
    layout = build_layout(
        udp_ips or ["10.0.1.9"], interval_s=interval,
        tcp_weight=draw(st.sampled_from((0.0, 0.1, 0.33))) if in_tcp else 0.0,
        tcp_clients=[CLIENT] if in_tcp else [],
    )
    first = draw(st.floats(0.0001, 0.02))
    second = first + draw(st.floats(0.0, 0.01))
    epoch = second + interval
    frames = [
        (first, layout_packet(layout)),
        (second, layout_packet(replace(layout, epoch=epoch))),
    ]
    count = draw(st.integers(1, 8))
    slot = layout.slot_for(CLIENT)
    if slot is not None:
        for index in range(count):
            start = epoch + index * interval + slot.offset
            frames += burst_frames(draw, start + draw(st.floats(0.0002, 0.012)))
    horizon = epoch + (count + 1) * interval
    params = {"early_s": draw(st.sampled_from((ms(2), ms(6), ms(10))))}
    return Script(frames, busy_windows(draw, horizon), horizon, params)


def compensator_for(params):
    if params["compensator"] == "fixed":
        return FixedClockCompensator(
            early_s=params["early_s"],
            clock_offset_estimate_s=params["clock_offset_s"],
        )
    compensator = AdaptiveCompensator(early_s=params["early_s"])
    if params["compensator"] == "drifting":
        return DriftingCompensator(
            compensator, skew_ppm=80.0, jitter_s=0.0004,
            rng=RngStreams(7).get("fault-clock:0"),
        )
    return compensator


def run(script, build):
    """Run ``build(node, wnic, obs)`` against ``script``; everything the
    two sides must agree on."""
    sim = Simulator()
    obs = SimRecorder()
    node = Node(sim, "client", CLIENT, obs=obs)
    iface = node.add_interface("wl0")
    wnic = Wnic(sim, "client", obs=obs)
    daemon, guard = build(node, wnic, obs)
    guard.busy_connections = lambda: any(
        start <= sim.now < end for start, end in script.busy
    )

    def deliver(packet):
        if iface.can_receive(packet):
            node.on_receive(iface, packet)

    for at, packet in script.frames:
        sim.call_at1(at, deliver, packet)
    sim.run(until=script.horizon)
    rows = [
        (row.time, row.category, sorted(row.fields.items()))
        for row in obs.trace.all()
    ]
    return daemon, wnic.transitions, rows, obs.spans, obs.metrics.snapshot()


DYNAMIC_COUNTERS = (
    "schedules_heard", "missed_schedules", "marks_missed", "empty_bursts",
    "bursts_received", "early_wait_s", "miss_recovery_s",
    "data_packets_seen", "fallbacks", "resyncs", "max_consecutive_misses",
    "in_fallback",
)


def check_dynamic(script):
    params = script.params

    def machine(node, wnic, obs):
        daemon = PowerAwareClient(
            node, wnic, compensator_for(params),
            enforce_sleep_drops=params["gate"],
            fallback_after_misses=params["fallback"], obs=obs,
        )
        return daemon, daemon.driver.guard

    def reference(node, wnic, obs):
        daemon = ReferenceClient(
            node, wnic, compensator_for(params),
            enforce_sleep_drops=params["gate"],
            fallback_after_misses=params["fallback"], obs=obs,
        )
        return daemon, daemon._tx_guard

    new, *new_outputs = run(script, machine)
    old, *old_outputs = run(script, reference)
    assert new_outputs == old_outputs
    for name in DYNAMIC_COUNTERS:
        assert getattr(new, name) == getattr(old, name), name


def check_static(script):
    early_s = script.params["early_s"]

    def machine(node, wnic, obs):
        daemon = StaticClient(node, wnic, early_s=early_s, obs=obs)
        return daemon, daemon.driver.guard

    def reference(node, wnic, obs):
        daemon = ReferenceStaticClient(node, wnic, early_s=early_s, obs=obs)
        return daemon, daemon._tx_guard

    new, *new_outputs = run(script, machine)
    old, *old_outputs = run(script, reference)
    assert new_outputs == old_outputs
    assert new.bursts_received == old.bursts_received
    assert new.early_wait_s == old.early_wait_s


BOUNDED = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
LONG = settings(
    max_examples=1500, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@BOUNDED
@given(dynamic_scripts())
def test_schedule_machine_matches_generator_daemon(script):
    check_dynamic(script)


@BOUNDED
@given(static_scripts())
def test_static_walk_matches_generator_daemon(script):
    check_static(script)


@pytest.mark.slow
@LONG
@given(dynamic_scripts())
def test_schedule_machine_matches_generator_daemon_long(script):
    check_dynamic(script)


@pytest.mark.slow
@LONG
@given(static_scripts())
def test_static_walk_matches_generator_daemon_long(script):
    check_static(script)
