"""Unit tests for schedule messages and burst slots."""

import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# -- the client -> slot index ----------------------------------------------

_CLIENTS = ("10.0.1.1", "10.0.1.2", "10.0.1.3", "10.0.1.4")


@st.composite
def schedules(draw):
    """Valid schedules whose slots may list a client more than once."""
    srp = draw(st.floats(min_value=0.0, max_value=1e5))
    cursor = srp
    slots = []
    for client in draw(st.lists(st.sampled_from(_CLIENTS), max_size=8)):
        cursor += draw(st.floats(min_value=0.0, max_value=0.05))
        duration = draw(st.floats(min_value=0.0, max_value=0.05))
        slots.append(slot(
            ip=client, rendezvous=cursor, duration=duration,
            nbytes=draw(st.integers(min_value=0, max_value=1 << 16)),
        ))
        cursor += duration
    return Schedule(
        seq=draw(st.integers(min_value=0, max_value=1 << 20)),
        srp=srp,
        next_srp=cursor + draw(st.floats(min_value=0.01, max_value=1.0)),
        slots=tuple(slots),
        repeats_next=draw(st.booleans()),
    )


def first_match(schedule, client_ip):
    """The reference: a linear scan for the client's first slot."""
    for candidate in schedule.slots:
        if candidate.client_ip == client_ip:
            return candidate
    return None


def assert_index_matches_scan(schedule):
    for client in _CLIENTS + ("10.0.9.9",):
        assert schedule.slot_for(client) is first_match(schedule, client)


class TestSlotIndex:
    @settings(max_examples=200, deadline=None)
    @given(schedule=schedules())
    def test_matches_first_match_scan(self, schedule):
        assert_index_matches_scan(schedule)

    @settings(max_examples=100, deadline=None)
    @given(schedule=schedules(), other=schedules())
    def test_survives_replace(self, schedule, other):
        renumbered = dataclasses.replace(schedule, seq=schedule.seq + 1)
        assert_index_matches_scan(renumbered)
        if other.slots and other.slots[0].rendezvous >= schedule.srp:
            moved = dataclasses.replace(
                schedule, slots=other.slots,
                next_srp=max(schedule.next_srp, other.next_srp),
            )
            assert_index_matches_scan(moved)

    @settings(max_examples=100, deadline=None)
    @given(schedule=schedules())
    def test_survives_json_and_pickle(self, schedule):
        for copy in (
            Schedule.from_json(json.loads(json.dumps(schedule.to_json()))),
            pickle.loads(pickle.dumps(schedule)),
        ):
            assert copy == schedule
            assert_index_matches_scan(copy)

    @settings(max_examples=100, deadline=None)
    @given(schedule=schedules())
    def test_ignored_by_equality_hash_repr_and_json(self, schedule):
        blank = dataclasses.replace(schedule)
        object.__setattr__(blank, "_by_client", {})
        assert blank == schedule
        assert hash(blank) == hash(schedule)
        assert repr(blank) == repr(schedule)
        assert blank.to_json() == schedule.to_json()
        assert "_by_client" not in {f.name for f in dataclasses.fields(Schedule)}
