"""Declarative fault-scenario configuration.

A :class:`FaultPlan` describes *what goes wrong* during a run — channel
loss (iid or Gilbert–Elliott bursty), duplication, reordering,
corruption, AP outage windows, schedule-broadcast blackouts, client
clock skew and mid-run churn — plus the graceful-degradation knobs the
system answers with. Plans are plain frozen dataclasses, replayed
exactly under the experiment's seed (all randomness is drawn from the
experiment's seeded RNG streams, never from the plan itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value < 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1), got {value!r}")


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")


@dataclass(frozen=True, slots=True)
class GilbertElliottSpec:
    """Two-state bursty loss: a good and a bad channel state.

    Per frame the chain first transitions (``p_good_bad`` /
    ``p_bad_good``), then drops the frame with the loss rate of the
    current state. The classic configuration is ``loss_good=0`` and
    ``loss_bad`` near 1, which yields loss *bursts* with geometric
    lengths — the wireless error pattern iid loss cannot imitate.
    """

    p_good_bad: float
    p_bad_good: float
    loss_good: float = 0.0
    loss_bad: float = 1.0

    def __post_init__(self) -> None:
        _check_prob("p_good_bad", self.p_good_bad)
        _check_prob("p_bad_good", self.p_bad_good)
        _check_prob("loss_good", self.loss_good)
        _check_prob("loss_bad", self.loss_bad)


@dataclass(frozen=True, slots=True)
class Window:
    """A half-open ``[start, end)`` interval of simulated time."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ConfigurationError(
                f"bad fault window: [{self.start}, {self.end})"
            )

    def contains(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True, slots=True)
class ChurnEvent:
    """One client leaving the cell (and optionally rejoining).

    While gone, every frame to or from the client is lost on the air —
    the radio is out of range. ``rejoin_at=None`` means it never comes
    back.
    """

    client_index: int
    leave_at: float
    rejoin_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.client_index < 0:
            raise ConfigurationError(
                f"negative churn client index: {self.client_index!r}"
            )
        if self.leave_at < 0:
            raise ConfigurationError(f"negative leave_at: {self.leave_at!r}")
        if self.rejoin_at is not None and self.rejoin_at <= self.leave_at:
            raise ConfigurationError(
                f"rejoin_at {self.rejoin_at} must follow leave_at {self.leave_at}"
            )

    def gone(self, now: float) -> bool:
        if now < self.leave_at:
            return False
        return self.rejoin_at is None or now < self.rejoin_at


@dataclass(frozen=True, slots=True)
class ClockFaultSpec:
    """Client clock error: rate skew plus per-wake-up timer jitter.

    ``skew_ppm`` is the clock-rate error in parts per million — a
    client at +100 ppm fires a 500 ms timer 50 µs late. ``jitter_s``
    is the standard deviation of an extra zero-mean error on every
    wake-up (OS timer slop). Both stress the adaptive delay
    compensator, which is exactly what §3.3 claims to absorb.
    """

    skew_ppm: float = 0.0
    jitter_s: float = 0.0

    def __post_init__(self) -> None:
        if self.jitter_s < 0:
            raise ConfigurationError(f"negative jitter: {self.jitter_s!r}")


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Everything injected into one run, plus the degradation knobs."""

    #: iid frame loss rate on the wireless medium.
    loss_rate: float = 0.0
    #: Bursty (Gilbert–Elliott) loss, composed with ``loss_rate``.
    burst_loss: Optional[GilbertElliottSpec] = None
    #: Probability a frame is transmitted twice.
    duplicate_rate: float = 0.0
    #: Probability a frame is pushed behind the frames queued after it.
    reorder_rate: float = 0.0
    #: Probability a frame arrives corrupted (fails its CRC: dropped,
    #: but accounted separately from channel loss).
    corrupt_rate: float = 0.0
    #: Total AP outages: nothing traverses the air in these windows.
    outages: tuple[Window, ...] = ()
    #: Schedule-broadcast blackouts: only the schedule datagrams die.
    schedule_blackouts: tuple[Window, ...] = ()
    #: Per-client clock error (applied to every power-aware client).
    clock: Optional[ClockFaultSpec] = None
    #: Mid-run client membership changes.
    churn: tuple[ChurnEvent, ...] = ()
    #: Consecutive missed schedule broadcasts before a client falls
    #: back to always-listen mode (graceful degradation).
    fallback_after_misses: int = 3
    #: Proxy-side: reclaim a client's slot after this much uplink
    #: silence (None disables reclamation).
    silence_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        _check_rate("loss_rate", self.loss_rate)
        _check_rate("duplicate_rate", self.duplicate_rate)
        _check_rate("reorder_rate", self.reorder_rate)
        _check_rate("corrupt_rate", self.corrupt_rate)
        if self.fallback_after_misses < 1:
            raise ConfigurationError(
                f"fallback_after_misses must be >= 1: "
                f"{self.fallback_after_misses!r}"
            )
        if self.silence_timeout_s is not None and self.silence_timeout_s <= 0:
            raise ConfigurationError(
                f"silence_timeout_s must be positive: {self.silence_timeout_s!r}"
            )
        # Normalize lists to tuples so plans hash/compare structurally.
        for name in ("outages", "schedule_blackouts", "churn"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    @property
    def touches_medium(self) -> bool:
        """True when any injector must be installed on the air."""
        return bool(
            self.loss_rate
            or self.burst_loss is not None
            or self.duplicate_rate
            or self.reorder_rate
            or self.corrupt_rate
            or self.outages
            or self.schedule_blackouts
            or self.churn
        )
