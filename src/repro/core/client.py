"""The power-aware client daemon (paper §3.1, §3.3).

The client keeps its WNIC asleep except around two rendezvous points
per burst interval: the schedule broadcast and its own burst. All
wake-ups are predicted by a delay-compensation algorithm and happen an
*early transition amount* before the predicted arrival. The daemon
reproduces the paper's corner cases:

* a schedule that arrives while the client is still waiting for the
  previous burst's marked packet is queued, not applied (§3.2.2
  "Packet Ordering" case 1);
* data arriving before the schedule is accepted normally (case 2);
* a missed schedule leaves the WNIC in high-power mode until the next
  schedule is heard (§3.3);
* a missed marked packet leaves the WNIC awake until the next schedule
  (§3.2.2).

Graceful degradation: while schedules keep failing to arrive, the
client keeps listening on the last known interval cadence, counting
every missed broadcast; after ``fallback_after_misses`` consecutive
misses it declares the control channel lost and *falls back* to a safe
always-listen mode (no data can be missed, at naive-client energy
cost). The first schedule heard afterwards resynchronizes it back to
scheduled sleep; the ``fallbacks``/``resyncs`` counters surface both
transitions.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.delay_comp import AdaptiveCompensator, DelayCompensator
from repro.core.schedule import SCHEDULE_PORT, Schedule
from repro.core.txguard import TransmitWakeGuard
from repro.errors import SchedulingError
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.udp import UdpSocket
from repro.obs.recorder import Recorder
from repro.sim.trace import TraceRecorder
from repro.units import ms
from repro.wnic.states import Wnic

#: Gaps shorter than this are not worth a sleep/wake cycle (2 x the
#: 2 ms wake penalty would outweigh the sleep savings).
DEFAULT_MIN_SLEEP_GAP_S = ms(4)
#: How long past the predicted arrival to keep listening for a
#: schedule before declaring it missed.
DEFAULT_SCHEDULE_GRACE_S = ms(12)
#: If a burst shows no data this long after the rendezvous wake, the
#: slot is empty (e.g. a reused schedule whose queue has drained) and
#: the client goes back to sleep instead of waiting for a mark.
DEFAULT_BURST_NOSHOW_S = ms(10)
#: Consecutive missed schedule broadcasts before the client falls back
#: to always-listen mode.
DEFAULT_FALLBACK_AFTER_MISSES = 3


class PowerAwareClient:
    """Client-side daemon driving the WNIC around rendezvous points."""

    def __init__(
        self,
        node: Node,
        wnic: Wnic,
        compensator: Optional[DelayCompensator] = None,
        trace: Optional[TraceRecorder] = None,
        min_sleep_gap_s: float = DEFAULT_MIN_SLEEP_GAP_S,
        schedule_grace_s: float = DEFAULT_SCHEDULE_GRACE_S,
        wireless_iface: str = "wl0",
        enforce_sleep_drops: bool = True,
        fallback_after_misses: int = DEFAULT_FALLBACK_AFTER_MISSES,
        obs: Optional[Recorder] = None,
    ) -> None:
        if fallback_after_misses < 1:
            raise SchedulingError(
                f"fallback_after_misses must be >= 1: {fallback_after_misses!r}"
            )
        self.node = node
        self.sim = node.sim
        self.wnic = wnic
        self.compensator = compensator or AdaptiveCompensator()
        if obs is not None:
            self.obs = obs
        elif trace is not None:
            self.obs = Recorder.wrap(trace)
        else:
            self.obs = node.obs
        self.trace = self.obs.trace if trace is None else trace
        self.min_sleep_gap_s = min_sleep_gap_s
        self.schedule_grace_s = schedule_grace_s
        self.fallback_after_misses = fallback_after_misses
        if wireless_iface not in node.interfaces:
            raise SchedulingError(
                f"{node.name} has no interface {wireless_iface!r}"
            )
        if enforce_sleep_drops:
            node.interfaces[wireless_iface].rx_gate = wnic.can_receive
        self._schedule_socket = UdpSocket(
            node, SCHEDULE_PORT, on_receive=self._on_schedule_packet
        )
        node.taps.insert(0, self._watch_frames)
        self._tx_guard = TransmitWakeGuard(node, wnic)

        # -- waiter state --
        self._schedule_waiter = None
        self._mark_waiter = None
        self._pending: Optional[tuple[Schedule, float]] = None
        self._awaiting_mark = False
        self._burst_first_frame: Optional[float] = None

        # -- counters (consumed by the energy analyzer / figure 6) --
        self.schedules_heard = 0
        #: ``client.schedules_heard`` handle, resolved on first use.
        self._heard_counter: Any = None
        self.missed_schedules = 0
        self.marks_missed = 0
        self.empty_bursts = 0
        self.bursts_received = 0
        self.early_wait_s = 0.0
        self.miss_recovery_s = 0.0
        self.data_packets_seen = 0

        # -- graceful-degradation state --
        self.in_fallback = False
        self.fallbacks = 0
        self.resyncs = 0
        self.max_consecutive_misses = 0

        self.sim.process(self._run())

    # ------------------------------------------------------------------
    # Packet observation
    # ------------------------------------------------------------------

    def _watch_frames(self, packet: Packet, iface) -> bool:
        """Pass-through tap tracking burst progress and marked packets."""
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

    def _on_schedule_packet(self, packet: Packet) -> None:
        schedule: Schedule = packet.meta["schedule"]
        arrival = self.sim.now
        self.schedules_heard += 1
        self.compensator.observe_arrival(schedule, arrival)
        self.obs.event(
            arrival, "client.schedule-heard", client=self.node.ip,
            seq=schedule.seq,
        )
        heard = self._heard_counter
        if heard is None:
            heard = self._heard_counter = self.obs.resolve_counter(
                "client.schedules_heard", client=self.node.ip
            )
        heard.inc()
        if self._awaiting_mark:
            # Paper case 1: ignore (queue) until the marked packet shows
            # up — but a *second* schedule supersedes a lost mark, so a
            # queued schedule also releases the mark wait.
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

    # ------------------------------------------------------------------
    # Main daemon process
    # ------------------------------------------------------------------

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

    # -- burst phase ------------------------------------------------------

    def _burst_phase(
        self, schedule: Schedule, arrival: float, offset: float,
        replay: bool = False,
    ):
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
        # A fresh schedule only lists clients with queued data, so the
        # burst is certain and the client waits for its marked packet
        # (the paper's behaviour, §3.2.2). Only a *replayed* interval
        # (schedule reuse, §5) can have an empty slot — there a short
        # no-show window lets the client give up early.
        noshow = (
            wake_time + self.compensator.early_s + DEFAULT_BURST_NOSHOW_S
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
                    self.sim.now, "client.mark-missed",
                    client=self.node.ip,
                )
                self.obs.inc("client.marks_missed", client=self.node.ip)
        else:
            # Nothing arrived: an empty slot (reused schedule, drained
            # queue). The no-show window was wasted high-power time.
            self.empty_bursts += 1
            self.early_wait_s += max(0.0, self.sim.now - wake_time)

    def _await_mark(self, deadline: float, noshow_deadline: float):
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
                return False  # no-show: give up and sleep
        timeout = self.sim.timeout(deadline - self.sim.now)
        yield self.sim.any_of([waiter, timeout])
        if waiter.processed:
            return bool(waiter.value)
        self._mark_waiter = None
        return False

    # -- schedule phase ------------------------------------------------------

    def _schedule_phase(self, schedule: Schedule, arrival: float, offset: float):
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
        # Missed: stay in high-power mode (§3.3) and keep listening on
        # the last known interval cadence, counting every broadcast
        # that fails to arrive. After ``fallback_after_misses``
        # consecutive misses the control channel is declared lost and
        # the client falls back to plain always-listen mode until a
        # schedule is heard again (graceful degradation).
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
            self.obs.inc("client.schedules_missed", client=self.node.ip)
            if consecutive >= self.fallback_after_misses:
                if not self.in_fallback:
                    self.in_fallback = True
                    self.fallbacks += 1
                    self.obs.event(
                        self.sim.now, "client.fallback",
                        client=self.node.ip, misses=consecutive,
                    )
                    self.obs.inc("client.fallbacks", client=self.node.ip)
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
            self.obs.inc("client.resyncs", client=self.node.ip)
        self.miss_recovery_s += self.sim.now - recovery_start
        return result

    def _await_schedule(self, deadline: Optional[float]):
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

    # -- sleeping ----------------------------------------------------------

    def _sleep_until(self, wake_at: float):
        yield from self._tx_guard.sleep_until(wake_at, self.min_sleep_gap_s)

    # -- reporting helpers ------------------------------------------------------

    @property
    def counters(self) -> dict:
        """Counters in the shape the energy analyzer expects."""
        return {
            "missed_schedules": self.missed_schedules,
            "schedules_heard": self.schedules_heard,
            "early_wait_s": self.early_wait_s,
            "miss_recovery_s": self.miss_recovery_s,
            "fallbacks": self.fallbacks,
            "resyncs": self.resyncs,
            "max_consecutive_misses": self.max_consecutive_misses,
        }
