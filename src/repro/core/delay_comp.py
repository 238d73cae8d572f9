"""Delay-compensation algorithms (paper §3.3).

A client must be awake when its packets arrive, but packets pass
through the access point (variable forwarding delay), the proxy is
multithreaded, and the client's clock is not synchronized with the
proxy's. The client therefore *predicts* arrival times and wakes an
*early transition amount* before them. Two predictors:

* :class:`AdaptiveCompensator` — the paper's algorithm: anchor every
  transition a fixed amount after the **observed arrival time** of the
  previous schedule; absolute proxy timestamps are only used as
  relative offsets, so clock offset between proxy and client cancels.
* :class:`FixedClockCompensator` — trusts the proxy's absolute
  timestamps, shifted by the client's (mis)estimated clock offset; a
  strawman showing why adaptation is needed.

Figure 6 sweeps the adaptive predictor's early amount down to zero.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.schedule import BurstSlot, Schedule
from repro.errors import ConfigurationError
from repro.units import ms


class DelayCompensator(ABC):
    """Strategy deciding when to transition the WNIC out of sleep."""

    def __init__(self, early_s: float = ms(6)) -> None:
        if early_s < 0:
            raise ConfigurationError(f"negative early amount: {early_s!r}")
        self.early_s = early_s

    @abstractmethod
    def next_schedule_wake(self, schedule: Schedule, arrival: float) -> float:
        """Client-clock time to wake for the schedule after ``schedule``.

        Args:
            schedule: the schedule just received.
            arrival: client-clock time it arrived.
        """

    @abstractmethod
    def burst_wake(
        self, schedule: Schedule, arrival: float, slot: BurstSlot
    ) -> float:
        """Client-clock time to wake for this client's own burst."""

    def predict_arrival(self, schedule: Schedule, arrival: float) -> float:
        """Expected client-clock arrival of the *next* schedule (the
        reference point for declaring it missed)."""
        return arrival + schedule.interval

    def observe_arrival(self, schedule: Schedule, arrival: float) -> None:
        """Hook for predictors that learn from arrivals (default: none)."""


class AdaptiveCompensator(DelayCompensator):
    """Anchor every wake-up to the previous schedule's arrival time.

    ``wake = arrival + (target - srp) - early``: the proxy's timestamps
    supply only the *gap* between the SRP and the target event, so a
    constant AP delay or clock offset cancels; only delay *changes*
    between consecutive schedules can cause a miss, and those are what
    the early transition amount absorbs.

    The paper's algorithm assumes delay changes persist ("several
    subsequent schedule packets will arrive according to the same
    pattern"). Under bursty cross-traffic the delay is *bimodal* — a
    schedule behind a queue of uplink ACKs arrives late, the next one
    arrives promptly, and anchoring on the late one sleeps straight
    through its successor. The optional **min-filter margin** fixes
    this: the client tracks how much earlier than predicted recent
    schedules arrived and widens its wake-up by that observed worst
    case. ``window=0`` disables it (the paper's exact algorithm).
    """

    def __init__(
        self, early_s: float = ms(6), window: int = 16,
        max_margin_s: float = ms(15),
    ) -> None:
        super().__init__(early_s)
        from collections import deque

        self.window = window
        self.max_margin_s = max_margin_s
        self._errors = deque(maxlen=window) if window > 0 else None
        self._last_prediction: float | None = None

    @property
    def margin_s(self) -> float:
        """Extra wake-up lead learned from early-arrival surprises."""
        if not self._errors:
            return 0.0
        return min(self.max_margin_s, max(0.0, -min(self._errors)))

    def observe_arrival(self, schedule: Schedule, arrival: float) -> None:
        if self._errors is None:
            return
        if self._last_prediction is not None:
            self._errors.append(arrival - self._last_prediction)
        self._last_prediction = arrival + schedule.interval

    def next_schedule_wake(self, schedule: Schedule, arrival: float) -> float:
        return arrival + schedule.interval - self.early_s - self.margin_s

    def burst_wake(
        self, schedule: Schedule, arrival: float, slot: BurstSlot
    ) -> float:
        return (
            arrival + (slot.rendezvous - schedule.srp)
            - self.early_s - self.margin_s
        )


class FixedClockCompensator(DelayCompensator):
    """Trust absolute proxy timestamps plus an assumed clock offset.

    ``clock_offset_estimate_s`` is the client's belief about
    (client clock − proxy clock). When the belief is wrong — the usual
    case without time synchronization — every wake-up is systematically
    early (wasted energy) or late (missed packets).
    """

    def __init__(self, early_s: float = ms(6), clock_offset_estimate_s: float = 0.0):
        super().__init__(early_s)
        self.clock_offset_estimate_s = clock_offset_estimate_s

    def _to_client_clock(self, proxy_time: float) -> float:
        return proxy_time + self.clock_offset_estimate_s

    def next_schedule_wake(self, schedule: Schedule, arrival: float) -> float:
        return self._to_client_clock(schedule.next_srp) - self.early_s

    def predict_arrival(self, schedule: Schedule, arrival: float) -> float:
        return self._to_client_clock(schedule.next_srp)

    def burst_wake(
        self, schedule: Schedule, arrival: float, slot: BurstSlot
    ) -> float:
        return self._to_client_clock(slot.rendezvous) - self.early_s
