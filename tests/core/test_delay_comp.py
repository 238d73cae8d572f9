"""Unit tests for delay-compensation algorithms."""

import pytest

from repro.core.delay_comp import AdaptiveCompensator, FixedClockCompensator
from repro.core.schedule import BurstSlot, Schedule
from repro.errors import ConfigurationError


def make_schedule(srp=10.0, interval=0.5, rp_offset=0.05, duration=0.02):
    return Schedule(
        seq=1, srp=srp, next_srp=srp + interval,
        slots=(
            BurstSlot(
                client_ip="10.0.1.1",
                rendezvous=srp + rp_offset,
                duration=duration,
                bytes_allotted=100,
            ),
        ),
    )


class TestAdaptiveCompensator:
    def test_negative_early_rejected(self):
        with pytest.raises(ConfigurationError):
            AdaptiveCompensator(early_s=-0.001)

    def test_schedule_wake_anchored_on_arrival(self):
        comp = AdaptiveCompensator(early_s=0.006)
        schedule = make_schedule(srp=10.0, interval=0.5)
        # schedule arrived 3 ms late (AP delay)
        wake = comp.next_schedule_wake(schedule, arrival=10.003)
        assert wake == pytest.approx(10.003 + 0.5 - 0.006)

    def test_burst_wake_uses_relative_offset(self):
        comp = AdaptiveCompensator(early_s=0.006)
        schedule = make_schedule(srp=10.0, rp_offset=0.05)
        wake = comp.burst_wake(
            schedule, arrival=10.002, slot=schedule.slots[0]
        )
        assert wake == pytest.approx(10.002 + 0.05 - 0.006)

    def test_clock_offset_cancels(self):
        """A constant offset between clocks does not shift the wake
        relative to the (equally offset) arrival."""
        comp = AdaptiveCompensator(early_s=0.004)
        schedule = make_schedule(srp=100.0)
        wake_a = comp.next_schedule_wake(schedule, arrival=100.001)
        # same schedule observed by a client whose arrival timestamp is
        # shifted by delta (its clock differs by delta)
        delta = 7.3
        wake_b = comp.next_schedule_wake(schedule, arrival=100.001 + delta)
        assert wake_b - wake_a == pytest.approx(delta)


class TestFixedClockCompensator:
    def test_accurate_offset_matches_adaptive_intent(self):
        comp = FixedClockCompensator(early_s=0.006, clock_offset_estimate_s=0.0)
        schedule = make_schedule(srp=10.0, interval=0.5)
        wake = comp.next_schedule_wake(schedule, arrival=10.002)
        assert wake == pytest.approx(10.5 - 0.006)

    def test_wrong_offset_shifts_every_wake(self):
        wrong = FixedClockCompensator(early_s=0.006, clock_offset_estimate_s=0.05)
        right = FixedClockCompensator(early_s=0.006, clock_offset_estimate_s=0.0)
        schedule = make_schedule()
        slot = schedule.slots[0]
        assert wrong.burst_wake(schedule, 10.0, slot) - right.burst_wake(
            schedule, 10.0, slot
        ) == pytest.approx(0.05)


class TestOracleCompensator:
    """The ``early = 0`` point of Figure 6: adaptive, no early margin."""

    def test_zero_early_amount(self):
        comp = AdaptiveCompensator(early_s=0.0)
        assert comp.early_s == 0.0
        schedule = make_schedule(srp=10.0, interval=0.5)
        assert comp.next_schedule_wake(schedule, 10.0) == pytest.approx(10.5)
