"""The client daemon as one sans-IO state machine (paper §3.1, §3.3).

The card sleeps except around the schedule broadcast and the client's
own burst, waking an *early transition amount* before each predicted
arrival. A schedule heard while the client waits for a burst's marked
packet is held until the mark (§3.2.2); a missed schedule or mark keeps
the card awake; ``fallback_after_misses`` missed broadcasts in a row
fall back to always-listen until a schedule resyncs the client.

The machine reads no clock and owns no socket or timer, so it imports
neither the simulator nor asyncio: a driver stamps its inputs with
``now`` and carries out its outputs (the :class:`Driver`). One timer is
live at a time, and a stale one is dropped by its token. A wait that an
input can end moves on from a zero-delay *reaction* armed by the input
or the deadline, never inline: in the simulator that keeps same-instant
events in their pinned order (DESIGN.md §11).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Protocol

from repro.core.delay_comp import DelayCompensator
from repro.core.schedule import Schedule
from repro.errors import SchedulingError
from repro.units import ms

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.recorder import Recorder

#: Gaps shorter than this are not worth a sleep/wake cycle (2 x the
#: 2 ms wake penalty would outweigh the sleep savings).
MIN_SLEEP_GAP_S = ms(4)
#: Poll spacing while a handshake keeps the card up.
HANDSHAKE_POLL_S = ms(2)
#: How long past the predicted arrival to listen for a schedule.
SCHEDULE_GRACE_S = ms(12)
#: A replayed burst (schedule reuse, §5) with no data this long after
#: the wake plus the early amount is an empty slot: sleep, skip the mark.
BURST_NOSHOW_S = ms(10)
#: Consecutive missed broadcasts before the always-listen fallback.
DEFAULT_FALLBACK_AFTER_MISSES = 3

# The explicit state: what the machine waits for, so what an input means.
START = "start"  # awake, for the first schedule (or the static layout)
SLEEP = "sleep"  # for a timer; the card is down unless the gap is short
BURST = "burst"  # awake, for the burst's marked packet
LISTEN = "listen"  # awake, for the next schedule on time
RECOVER = "recover"  # awake, schedules missed: for one on the old cadence
FALLBACK = "fallback"  # awake, control channel lost: for any schedule

#: A schedule and the client-clock time it arrived.
Heard = tuple[Schedule, float]
#: The :attr:`ScheduleMachine.counters` an energy report reads.
REPORTED_COUNTERS = (
    "missed_schedules", "schedules_heard", "early_wait_s", "miss_recovery_s",
    "fallbacks", "resyncs", "max_consecutive_misses",
)


class Driver(Protocol):
    """The outputs: ``wake``/``sleep`` move the card, ``arm`` calls
    ``on_timer(token, now)`` after ``delay``, ``busy`` reports handshakes."""

    def wake(self) -> None: ...
    def sleep(self) -> None: ...
    def arm(self, delay: float, token: int) -> None: ...
    def busy(self) -> bool: ...


class ClientMachine:
    """What every client daemon shares: timers, the sleep rule and the
    burst wait. A subclass supplies :meth:`on_start` and its walk."""

    #: Set by the driver that runs the machine.
    driver: Driver

    def __init__(self, client: str, obs: Recorder) -> None:
        self.client = client  # the address schedules name this client by
        self.obs = obs
        self.state = START
        self.data_packets_seen = 0
        #: Arrival of the current burst's first data frame, if any yet.
        self.burst_first_frame: Optional[float] = None
        self._token = 0
        self._then: Optional[Callable[[float], None]] = None
        self._burst_then: Optional[Callable[[bool, float], None]] = None
        self._deadline = 0.0

    def on_start(self, now: float) -> None:
        raise NotImplementedError

    def on_data(self, now: float) -> None:
        self.data_packets_seen += 1
        if self.burst_first_frame is None:
            self.burst_first_frame = now

    def on_mark(self, now: float) -> None:
        self._end_burst_wait(True)

    def on_timer(self, token: int, now: float) -> None:
        then = self._then
        if token == self._token and then is not None:  # else stale
            self._then = None
            then(now)

    def _wait(self, delay: float, then: Callable[[float], None]) -> None:
        """Arm the one live timer; ``then(now)`` runs when it fires."""
        self._token += 1
        self._then = then
        self.driver.arm(delay, self._token)

    def sleep_until(
        self, now: float, wake_at: float, then: Callable[[float], None]
    ) -> None:
        """Be awake at ``wake_at`` and run ``then(now)`` there (at once if
        it has passed); sleep before it unless a handshake is busy
        (polled every :data:`HANDSHAKE_POLL_S`) or the gap is at most
        :data:`MIN_SLEEP_GAP_S`."""
        self.state = SLEEP
        if self.driver.busy() and now < wake_at:
            poll = min(HANDSHAKE_POLL_S, wake_at - now)
            self._wait(poll, lambda t: self.sleep_until(t, wake_at, then))
            return
        gap = wake_at - now
        if gap <= 0:
            then(now)
        elif gap <= MIN_SLEEP_GAP_S:
            self._wait(gap, then)
        else:
            self.driver.sleep()
            self._wait(gap, lambda t: self._woken(t, then))

    def _woken(self, now: float, then: Callable[[float], None]) -> None:
        self.driver.wake()
        then(now)

    def await_burst(
        self, now: float, deadline: float, noshow: float,
        then: Callable[[bool, float], None],
    ) -> None:
        """Wait awake for the burst's mark until ``deadline``, then run
        ``then(got_mark, now)``. With no data frame by ``noshow`` (if it
        comes first) the slot is empty and the wait ends there."""
        self.state = BURST
        if deadline <= now:
            then(False, now)
            return
        self._burst_then = then
        self._deadline = deadline
        if noshow >= deadline:
            self._wait(deadline - now, lambda t: self._end_burst_wait(False))
        elif noshow > now:
            self._wait(noshow - now, lambda t: self._wait(0.0, self._noshow))
        else:
            self._noshow(now)

    def _noshow(self, now: float) -> None:
        then = self._burst_then
        if self.burst_first_frame is not None:
            self._wait(self._deadline - now, lambda t: self._end_burst_wait(False))
        elif then is not None:
            self._burst_then = None
            then(False, now)

    def _end_burst_wait(self, got_mark: bool) -> None:
        """A mark, a second schedule or the deadline: react right away."""
        then = self._burst_then
        if then is None:
            return
        self._burst_then = None
        self._wait(0.0, lambda now: then(got_mark, now))


class ScheduleMachine(ClientMachine):
    """The paper's client daemon, driven by schedule broadcasts."""

    _schedule: Schedule
    _arrival: float

    def __init__(
        self, client: str, obs: Recorder, compensator: DelayCompensator,
        fallback_after_misses: int = DEFAULT_FALLBACK_AFTER_MISSES,
    ) -> None:
        if fallback_after_misses < 1:
            raise SchedulingError(
                f"fallback_after_misses must be >= 1: {fallback_after_misses!r}"
            )
        super().__init__(client, obs)
        self.compensator = compensator
        self.fallback_after_misses = fallback_after_misses
        #: A schedule heard while the machine was not listening.
        self._pending: Optional[Heard] = None
        self._listening = False
        self._repetition = self._consecutive = 0
        self._offset = self._burst_woke_at = self._listen_from = 0.0
        self._predicted = self._recovery_start = 0.0
        #: ``client.schedules_heard`` handle, resolved on first use.
        self._heard_counter: Any = None
        # -- counters (consumed by the energy analyzer / figure 6) --
        self.schedules_heard = self.missed_schedules = self.marks_missed = 0
        self.empty_bursts = self.bursts_received = 0
        self.fallbacks = self.resyncs = self.max_consecutive_misses = 0
        self.early_wait_s = self.miss_recovery_s = 0.0

    @property
    def in_fallback(self) -> bool:
        return self.state == FALLBACK

    @property
    def counters(self) -> dict[str, Any]:
        """Counters in the shape the energy analyzer expects."""
        return {name: getattr(self, name) for name in REPORTED_COUNTERS}

    def on_start(self, now: float) -> None:
        """Wake and listen for a schedule with no deadline. A driver that
        restarts (a live client rejoining) drops the wait in progress."""
        self._token += 1
        self._then = self._burst_then = self._pending = None
        self._listening = False
        self.driver.wake()
        self.state = START
        self._listen(now, None)

    def on_schedule(self, schedule: Schedule, now: float) -> None:
        self.schedules_heard += 1
        self.compensator.observe_arrival(schedule, now)
        if self.obs.record_events:
            self.obs.event(
                now, "client.schedule-heard",
                client=self.client, seq=schedule.seq,
            )
        heard = self._heard_counter
        if heard is None:
            heard = self._heard_counter = self.obs.counter(
                "client.schedules_heard", client=self.client
            )
        heard.inc()
        if self.state == BURST:
            # Paper case 1: hold it until the marked packet shows up —
            # but a *second* schedule supersedes a lost mark.
            if self._pending is not None:
                self._end_burst_wait(False)
            self._pending = (schedule, now)
        elif not self._listening:
            self._pending = (schedule, now)
        else:
            self._listening = False
            self._wait(0.0, lambda t: self._heard((schedule, now), t))

    def _follow(self, heard: Heard, now: float) -> None:
        """Act on a schedule: its burst (twice for a reused one), then
        the wait for the next schedule."""
        self._schedule, self._arrival = heard
        self._repetition = 0
        self._next_burst(now)

    def _next_burst(self, now: float) -> None:
        schedule = self._schedule
        repetitions = 2 if schedule.repeats_next else 1
        slot = schedule.slot_for(self.client)
        if slot is None or self._repetition == repetitions:
            self._await_schedule(now, (repetitions - 1) * schedule.interval)
            return
        wake_at = self.compensator.burst_wake(schedule, self._arrival, slot)
        offset = self._repetition * schedule.interval
        self.sleep_until(now, wake_at + offset, self._burst_woke)

    def _burst_woke(self, now: float) -> None:
        self._burst_woke_at = now
        self.burst_first_frame = None
        deadline = (
            self.compensator.next_schedule_wake(self._schedule, self._arrival)
            + self._repetition * self._schedule.interval
        )
        # A fresh schedule lists only clients with queued data, so its
        # burst is certain (§3.2.2); only a replayed interval can have an
        # empty slot, and there a short no-show window ends the wait.
        noshow = (
            now + self.compensator.early_s + BURST_NOSHOW_S
            if self._repetition
            else deadline
        )
        self.await_burst(now, deadline, noshow, self._burst_done)

    def _burst_done(self, got_mark: bool, now: float) -> None:
        first = self.burst_first_frame
        if self.obs.record_spans:
            self.obs.span(
                self._burst_woke_at, now, "burst", f"client {self.client}",
                got_mark=got_mark, replay=self._repetition > 0,
                got_data=first is not None,
            )
        if first is not None:
            self.bursts_received += 1
            self.early_wait_s += max(0.0, first - self._burst_woke_at)
            if not got_mark:
                self.marks_missed += 1
                self.obs.event(now, "client.mark-missed", client=self.client)
                self.obs.counter(
                    "client.marks_missed", client=self.client
                ).inc()
        else:
            # An empty slot (reused schedule, drained queue): the no-show
            # window was wasted high-power time.
            self.empty_bursts += 1
            self.early_wait_s += max(0.0, now - self._burst_woke_at)
        self._repetition += 1
        self._next_burst(now)

    def _await_schedule(self, now: float, offset: float) -> None:
        """Sleep until the next schedule is due, unless one is held."""
        self._offset = offset
        wake_at = (
            self.compensator.next_schedule_wake(self._schedule, self._arrival)
            + offset
        )
        if self._pending is None:
            self.sleep_until(now, wake_at, self._listen_on_time)
        else:
            self._listen_on_time(now)

    def _listen_on_time(self, now: float) -> None:
        self._listen_from = now
        self._predicted = (
            self.compensator.predict_arrival(self._schedule, self._arrival)
            + self._offset
        )
        self.state = LISTEN
        self._listen(now, self._predicted + SCHEDULE_GRACE_S)

    def _listen(self, now: float, deadline: Optional[float]) -> None:
        """Wait awake for a schedule until ``deadline`` (None: forever)."""
        if self._pending is not None:
            heard = self._pending
            self._pending = None
            self._heard(heard, now)
        elif deadline is not None and deadline <= now:
            self._missed(now)
        else:
            self._listening = True
            if deadline is not None:
                self._wait(deadline - now, self._listen_timed_out)

    def _listen_timed_out(self, now: float) -> None:
        self._listening = False
        self._wait(0.0, self._missed)

    def _heard(self, heard: Heard, now: float) -> None:
        if self.state == LISTEN:
            self.early_wait_s += max(0.0, heard[1] - self._listen_from)
        elif self.state != START:
            if self.state == FALLBACK:
                self.resyncs += 1
                self.obs.event(now, "client.resync", client=self.client)
                self.obs.counter("client.resyncs", client=self.client).inc()
            self.miss_recovery_s += now - self._recovery_start
        self._follow(heard, now)

    def _missed(self, now: float) -> None:
        """No schedule by the deadline: stay awake (§3.3) and listen on
        the last known cadence; after ``fallback_after_misses`` misses in
        a row, listen with no deadline."""
        if self.state == LISTEN:
            self.state = RECOVER
            self._recovery_start = now
            self._consecutive = 0
        self._consecutive += 1
        self.missed_schedules += 1
        if self._consecutive > self.max_consecutive_misses:
            self.max_consecutive_misses = self._consecutive
        self.obs.event(
            now, "client.schedule-missed", client=self.client,
            consecutive=self._consecutive,
        )
        self.obs.counter("client.schedules_missed", client=self.client).inc()
        if self._consecutive >= self.fallback_after_misses:
            self.state = FALLBACK
            self.fallbacks += 1
            self.obs.event(
                now, "client.fallback", client=self.client,
                misses=self._consecutive,
            )
            self.obs.counter("client.fallbacks", client=self.client).inc()
            self._listen(now, None)
            return
        self._predicted += self._schedule.interval
        self._listen(now, self._predicted + SCHEDULE_GRACE_S)
