"""Unit tests for schedule messages and burst slots."""

import pytest

from repro.core.schedule import BurstSlot, Schedule
from repro.errors import SchedulingError


def slot(ip="10.0.1.1", rendezvous=1.0, duration=0.05, nbytes=1000):
    return BurstSlot(
        client_ip=ip, rendezvous=rendezvous, duration=duration,
        bytes_allotted=nbytes,
    )


class TestBurstSlot:
    def test_end(self):
        assert slot(rendezvous=1.0, duration=0.25).end == pytest.approx(1.25)

    def test_negative_duration_rejected(self):
        with pytest.raises(SchedulingError):
            slot(duration=-0.1)

    def test_negative_bytes_rejected(self):
        with pytest.raises(SchedulingError):
            slot(nbytes=-5)


class TestSchedule:
    def test_interval(self):
        schedule = Schedule(seq=0, srp=1.0, next_srp=1.5)
        assert schedule.interval == pytest.approx(0.5)

    def test_next_srp_must_follow_srp(self):
        with pytest.raises(SchedulingError):
            Schedule(seq=0, srp=2.0, next_srp=2.0)

    def test_slot_before_srp_rejected(self):
        with pytest.raises(SchedulingError):
            Schedule(
                seq=0, srp=1.0, next_srp=1.5,
                slots=(slot(rendezvous=0.9),),
            )

    def test_overlapping_slots_rejected(self):
        with pytest.raises(SchedulingError):
            Schedule(
                seq=0, srp=1.0, next_srp=1.5,
                slots=(
                    slot(ip="a", rendezvous=1.01, duration=0.1),
                    slot(ip="b", rendezvous=1.05, duration=0.1),
                ),
            )

    def test_adjacent_slots_allowed(self):
        schedule = Schedule(
            seq=0, srp=1.0, next_srp=1.5,
            slots=(
                slot(ip="a", rendezvous=1.01, duration=0.1),
                slot(ip="b", rendezvous=1.11, duration=0.1),
            ),
        )
        assert len(schedule.slots) == 2

    def test_slot_for(self):
        schedule = Schedule(
            seq=0, srp=1.0, next_srp=1.5,
            slots=(slot(ip="10.0.1.7", rendezvous=1.02),),
        )
        assert schedule.slot_for("10.0.1.7") is not None
        assert schedule.slot_for("10.0.1.9") is None

    def test_wire_payload_scales_with_slots(self):
        empty = Schedule(seq=0, srp=0.0, next_srp=1.0)
        one = Schedule(seq=0, srp=0.0, next_srp=1.0, slots=(slot(rendezvous=0.5),))
        assert one.wire_payload == empty.wire_payload + 16
