"""Fuzzing the wire decoders with seeded corruption.

The proxy's control channel is plain UDP: anything on the network can
deliver truncated, bit-flipped, or outright hostile payloads to the
schedule port.  The contract of ``decode_control`` and of
``Schedule.from_json`` on what it returns is total: every input either
yields a fully validated value or raises :class:`SchedulingError` —
never any other exception, and never a half-populated schedule.
"""

import json
import math

import numpy as np
import pytest

from repro.core.schedule import BurstSlot, Schedule
from repro.errors import SchedulingError
from repro.runtime.wire import decode_control, encode_mark, encode_schedule

N_ROUNDS = 300


def make_schedule(rng):
    """A valid schedule: sorted, non-overlapping slots after the SRP."""
    srp = float(rng.uniform(0.0, 1e6))
    cursor = srp
    slots = []
    for i in range(int(rng.integers(0, 5))):
        cursor += float(rng.uniform(0.0, 0.05))
        duration = float(rng.uniform(0.0, 0.05))
        slots.append(BurstSlot(
            client_ip=f"client-{i}",
            rendezvous=cursor,
            duration=duration,
            bytes_allotted=int(rng.integers(0, 1 << 16)),
        ))
        cursor += duration
    return Schedule(
        seq=int(rng.integers(0, 1 << 20)),
        srp=srp,
        next_srp=srp + float(rng.uniform(0.01, 1.0)),
        slots=tuple(slots),
        repeats_next=bool(rng.integers(0, 2)),
    )


def decode_schedule(payload):
    """The live client's path: one parse, then the object decoder."""
    return Schedule.from_json(decode_control(payload))


def assert_total(payload):
    """Decoding must return a valid schedule or raise SchedulingError."""
    try:
        schedule = decode_schedule(payload)
    except SchedulingError:
        return None
    # Whatever survives decoding must be fully typed and in range —
    # corruption may produce a different but still *valid* schedule
    # (e.g. a flipped digit), never a partial one.
    assert isinstance(schedule.seq, int) and schedule.seq >= 0
    assert isinstance(schedule.srp, float) and math.isfinite(schedule.srp)
    assert isinstance(schedule.next_srp, float)
    assert math.isfinite(schedule.next_srp)
    assert schedule.next_srp > schedule.srp
    assert isinstance(schedule.repeats_next, bool)
    previous_end = None
    for slot in schedule.slots:
        assert isinstance(slot.client_ip, str) and slot.client_ip
        assert isinstance(slot.rendezvous, float)
        assert math.isfinite(slot.rendezvous)
        assert slot.rendezvous >= schedule.srp
        assert isinstance(slot.duration, float) and slot.duration >= 0
        assert math.isfinite(slot.duration)
        assert isinstance(slot.bytes_allotted, int) and slot.bytes_allotted >= 0
        if previous_end is not None:
            assert slot.rendezvous >= previous_end - 1e-9
        previous_end = slot.end
    return schedule


class TestScheduleFuzz:
    def test_truncation_never_crashes(self):
        rng = np.random.default_rng(2004)
        for _ in range(N_ROUNDS):
            payload = encode_schedule(make_schedule(rng))
            cut = int(rng.integers(0, len(payload)))
            assert_total(payload[:cut])

    def test_bit_flips_never_crash(self):
        rng = np.random.default_rng(42)
        for _ in range(N_ROUNDS):
            payload = bytearray(encode_schedule(make_schedule(rng)))
            for _ in range(int(rng.integers(1, 9))):
                pos = int(rng.integers(0, len(payload)))
                payload[pos] ^= 1 << int(rng.integers(0, 8))
            assert_total(bytes(payload))

    def test_random_bytes_never_crash(self):
        rng = np.random.default_rng(7)
        for _ in range(N_ROUNDS):
            payload = rng.integers(
                0, 256, size=int(rng.integers(0, 200)), dtype=np.uint8
            ).tobytes()
            assert_total(payload)

    def test_intact_payloads_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            schedule = make_schedule(rng)
            assert decode_schedule(encode_schedule(schedule)) == schedule


class TestScheduleShapeAttacks:
    """Well-formed JSON with a hostile shape must raise, not crash."""

    @pytest.mark.parametrize("payload", [
        b"5",
        b'"schedule"',
        b"null",
        b"true",
        b"[]",
        b'[{"type": "schedule"}]',
        b'{"type": "schedule"}',
        b'{"type": "schedule", "seq": "3", "srp": 0, "next_srp": 0.1}',
        b'{"type": "schedule", "seq": 3.5, "srp": 0, "next_srp": 0.1}',
        b'{"type": "schedule", "seq": true, "srp": 0, "next_srp": 0.1}',
        b'{"type": "schedule", "seq": -1, "srp": 0, "next_srp": 0.1}',
        b'{"type": "schedule", "seq": 3, "srp": null, "next_srp": 0.1}',
        b'{"type": "schedule", "seq": 3, "srp": 0}',
        b'{"type": "schedule", "seq": 3, "srp": 0, "next_srp": 0}',
        b'{"type": "schedule", "seq": 3, "srp": 0, "next_srp": -0.1}',
        b'{"type": "schedule", "seq": 3, "srp": 0, "next_srp": 0.1,'
        b' "slots": 9}',
        b'{"type": "schedule", "seq": 3, "srp": 0, "next_srp": 0.1,'
        b' "slots": ["x"]}',
        b'{"type": "schedule", "seq": 3, "srp": 0, "next_srp": 0.1,'
        b' "slots": [{}]}',
        b'{"type": "schedule", "seq": 3, "srp": 0, "next_srp": 0.1,'
        b' "slots": [{"client_ip": "", "rendezvous": 0, "duration": 0,'
        b' "bytes_allotted": 0}]}',
        b'{"type": "schedule", "seq": 3, "srp": 0, "next_srp": 0.1,'
        b' "slots": [{"client_ip": "c", "rendezvous": -1, "duration": 0,'
        b' "bytes_allotted": 0}]}',
        b'{"type": "schedule", "seq": 3, "srp": 0, "next_srp": 0.1,'
        b' "slots": [{"client_ip": "c", "rendezvous": 0, "duration": -0.1,'
        b' "bytes_allotted": 0}]}',
        b'{"type": "schedule", "seq": 3, "srp": 0, "next_srp": 0.1,'
        b' "slots": [{"client_ip": "c", "rendezvous": 0, "duration": 0,'
        b' "bytes_allotted": 0.5}]}',
        # What the schedule's own validation refuses:
        # overlapping slots,
        b'{"type": "schedule", "seq": 3, "srp": 0, "next_srp": 0.1,'
        b' "slots": [{"client_ip": "a", "rendezvous": 0.01, "duration": 0.05,'
        b' "bytes_allotted": 1}, {"client_ip": "b", "rendezvous": 0.02,'
        b' "duration": 0.01, "bytes_allotted": 1}]}',
        # a slot before the SRP,
        b'{"type": "schedule", "seq": 3, "srp": 5, "next_srp": 5.1,'
        b' "slots": [{"client_ip": "c", "rendezvous": 4.9, "duration": 0,'
        b' "bytes_allotted": 0}]}',
        # next_srp before srp,
        b'{"type": "schedule", "seq": 3, "srp": 5, "next_srp": 4.9}',
        # and a repeats_next that is not a bool.
        b'{"type": "schedule", "seq": 3, "srp": 0, "next_srp": 0.1,'
        b' "repeats_next": 1}',
        b'{"type": "schedule", "seq": 3, "srp": 0, "next_srp": 0.1,'
        b' "repeats_next": "true"}',
    ])
    def test_rejected_with_typed_error(self, payload):
        with pytest.raises(SchedulingError):
            decode_schedule(payload)

    def test_nan_and_inf_rejected(self):
        for value in ("NaN", "Infinity", "-Infinity"):
            for key in ("srp", "next_srp"):
                raw = {"type": "schedule", "seq": 3, "srp": 0.0, "next_srp": 0.1}
                raw[key] = float(value)
                payload = json.dumps(raw).encode()
                # Python's json writes and accepts these non-standard
                # literals; the decoder must still refuse a non-finite time.
                assert value.encode() in payload
                with pytest.raises(SchedulingError):
                    decode_schedule(payload)

    def test_missing_slots_defaults_to_empty(self):
        schedule = decode_schedule(
            b'{"type": "schedule", "seq": 3, "srp": 0.5, "next_srp": 0.6}'
        )
        assert schedule.slots == ()
        assert schedule.repeats_next is False


class TestControlFuzz:
    def test_mark_corruption_never_crashes(self):
        rng = np.random.default_rng(99)
        for _ in range(N_ROUNDS):
            payload = bytearray(
                encode_mark(f"client-{rng.integers(0, 9)}",
                            int(rng.integers(0, 1000)))
            )
            pos = int(rng.integers(0, len(payload)))
            payload[pos] ^= 1 << int(rng.integers(0, 8))
            try:
                raw = decode_control(bytes(payload[:len(payload) - int(
                    rng.integers(0, 4))]))
            except SchedulingError:
                continue
            assert isinstance(raw, dict)
            assert isinstance(raw["type"], str)

    @pytest.mark.parametrize("payload", [
        b"7", b"[]", b'"mark"', b"null",
        b'{"type": 3}', b'{"type": null}', b"{}",
    ])
    def test_shape_attacks_rejected(self, payload):
        with pytest.raises(SchedulingError):
            decode_control(payload)
