"""WNIC power-state machine with a logged transition history."""

from __future__ import annotations

from enum import Enum
from typing import Any, Optional, Protocol

from repro.errors import ConfigurationError
from repro.obs.recorder import Recorder
from repro.sim.trace import TraceRecorder


class Clock(Protocol):
    """Anything that tells the time: the simulator, or a live client's
    loop clock."""

    @property
    def now(self) -> float:
        """Current time in seconds."""


class WnicState(Enum):
    """Card power states.

    The client daemon switches between SLEEP and IDLE; RECEIVE and
    TRANSMIT are *attributed* states the energy analyzer assigns to
    awake time that overlaps frame airtime (paper §3.1: the trace
    simulator computes time in each mode postmortem).
    """

    SLEEP = "sleep"
    IDLE = "idle"
    RECEIVE = "receive"
    TRANSMIT = "transmit"


class Wnic:
    """A wireless card owned by one client.

    Tracks the sleep/awake timeline and counts sleep→idle wake-ups,
    whose energy cost the paper models as 2 ms of idle time each.
    ``clock`` stamps the timeline: the simulator, or the live client's
    loop clock.
    """

    def __init__(
        self,
        clock: Clock,
        owner: str,
        trace: Optional[TraceRecorder] = None,
        start_asleep: bool = False,
        obs: Optional[Recorder] = None,
    ) -> None:
        self.clock = clock
        self.owner = owner
        self.obs = obs if obs is not None else Recorder.wrap(trace)
        self.trace = self.obs.trace if trace is None else trace
        self._state = WnicState.SLEEP if start_asleep else WnicState.IDLE
        #: (time, new_state) history; starts with the initial state at t=0.
        self.transitions: list[tuple[float, WnicState]] = [
            (clock.now, self._state)
        ]
        self.wake_count = 0
        #: Per target state, the ``wnic.transitions`` counter handle,
        #: resolved on first use (see Recorder.resolve_*).
        self._transition_counters: dict[str, Any] = {}

    @property
    def state(self) -> WnicState:
        """Current macro state (SLEEP or IDLE)."""
        return self._state

    @property
    def is_awake(self) -> bool:
        """True when the card can hear the medium."""
        return self._state != WnicState.SLEEP

    def can_receive(self, _packet=None) -> bool:
        """Receive gate wired into the client's wireless interface."""
        return self.is_awake

    def wake(self) -> bool:
        """Transition to high-power mode; returns True if a wake happened."""
        if self.is_awake:
            return False
        self.wake_count += 1
        self._set_state(WnicState.IDLE)
        return True

    def sleep(self) -> bool:
        """Transition to low-power mode; returns True on an actual change."""
        if not self.is_awake:
            return False
        self._set_state(WnicState.SLEEP)
        return True

    def _set_state(self, state: WnicState) -> None:
        now = self.clock.now
        previous = self.transitions[-1] if self.transitions else None
        self._state = state
        self.transitions.append((now, state))
        to_state = state.value
        self.obs.event(now, "wnic.transition", owner=self.owner, state=to_state)
        counter = self._transition_counters.get(to_state)
        if counter is None:
            counter = self._transition_counters[to_state] = (
                self.obs.resolve_counter(
                    "wnic.transitions", owner=self.owner, to_state=to_state
                )
            )
        counter.inc()
        if (
            state == WnicState.SLEEP
            and previous is not None
            and previous[1] != WnicState.SLEEP
            and now > previous[0]
        ):
            # One completed awake stretch: render it on the timeline.
            self.obs.span(previous[0], now, "awake", self.owner)

    # -- timeline ----------------------------------------------------------

    def awake_intervals(self, end_time: float) -> list[tuple[float, float]]:
        """Maximal [start, end) intervals the card was awake before ``end_time``.

        Raises:
            ConfigurationError: if ``end_time`` precedes the last transition.
        """
        if self.transitions and end_time < self.transitions[-1][0]:
            raise ConfigurationError(
                f"end_time={end_time} precedes last transition at "
                f"{self.transitions[-1][0]}"
            )
        intervals: list[tuple[float, float]] = []
        awake_since: Optional[float] = None
        for when, state in self.transitions:
            if state != WnicState.SLEEP and awake_since is None:
                awake_since = when
            elif state == WnicState.SLEEP and awake_since is not None:
                if when > awake_since:
                    intervals.append((awake_since, when))
                awake_since = None
        if awake_since is not None and end_time > awake_since:
            intervals.append((awake_since, end_time))
        return intervals

    def awake_time(self, end_time: float) -> float:
        """Total awake seconds before ``end_time``."""
        return sum(end - start for start, end in self.awake_intervals(end_time))
