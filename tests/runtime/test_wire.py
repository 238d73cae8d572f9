"""Unit tests for the runtime wire format."""

import pytest

from repro.core.schedule import BurstSlot, Schedule
from repro.errors import SchedulingError
from repro.runtime.wire import decode_control, encode_mark, encode_schedule


def make_schedule():
    return Schedule(
        seq=3,
        srp=123.456,
        next_srp=123.556,
        slots=(
            BurstSlot("client-0", 123.458, 0.02, 4096),
            BurstSlot("client-1", 123.479, 0.03, 8192),
        ),
    )


def decode_schedule(payload):
    """What a live client does with a schedule datagram: parse once,
    then decode the object."""
    return Schedule.from_json(decode_control(payload))


class TestScheduleDatagram:
    def test_encode_decode_round_trip(self):
        schedule = make_schedule()
        payload = encode_schedule(schedule)
        assert decode_control(payload)["type"] == "schedule"
        assert decode_schedule(payload) == schedule

    def test_slot_for(self):
        schedule = decode_schedule(encode_schedule(make_schedule()))
        assert schedule.slot_for("client-1").bytes_allotted == 8192
        assert schedule.slot_for("client-9") is None

    def test_decode_rejects_garbage(self):
        with pytest.raises(SchedulingError):
            decode_schedule(b"not json at all {")

    def test_decode_rejects_wrong_type(self):
        with pytest.raises(SchedulingError):
            decode_schedule(encode_mark("c", 1))


class TestControlDatagrams:
    def test_mark_round_trip(self):
        raw = decode_control(encode_mark("client-7", 42))
        assert raw == {"type": "mark", "client_id": "client-7", "seq": 42}

    def test_decode_control_requires_type(self):
        with pytest.raises(SchedulingError):
            decode_control(b"{}")

    def test_decode_control_rejects_garbage(self):
        with pytest.raises(SchedulingError):
            decode_control(b"\xff\xfe")
