"""Unit tests for the WNIC state machine."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.recorder import SimRecorder
from repro.sim import Simulator
from repro.wnic import Wnic, WnicState


class TestWnicTransitions:
    def test_starts_awake_by_default(self):
        wnic = Wnic(Simulator(), "c1")
        assert wnic.is_awake
        assert wnic.state == WnicState.IDLE

    def test_start_asleep(self):
        wnic = Wnic(Simulator(), "c1", start_asleep=True)
        assert not wnic.is_awake

    def test_wake_and_sleep_toggle(self):
        wnic = Wnic(Simulator(), "c1", start_asleep=True)
        assert wnic.wake()
        assert wnic.is_awake
        assert wnic.sleep()
        assert not wnic.is_awake

    def test_redundant_transitions_are_noops(self):
        wnic = Wnic(Simulator(), "c1")
        assert not wnic.wake()  # already awake: no wake event
        wnic.sleep()
        assert not wnic.sleep()  # already asleep: no transition
        assert wnic.wake_count == 0

    def test_wake_count(self):
        sim = Simulator()
        wnic = Wnic(sim, "c1", start_asleep=True)
        for _ in range(3):
            wnic.wake()
            wnic.sleep()
        assert wnic.wake_count == 3

    def test_can_receive_gates_on_state(self):
        wnic = Wnic(Simulator(), "c1", start_asleep=True)
        assert not wnic.can_receive()
        wnic.wake()
        assert wnic.can_receive()

    def test_transitions_recorded_in_trace(self):
        obs = SimRecorder()
        sim = Simulator()
        wnic = Wnic(sim, "c1", obs=obs, start_asleep=True)
        sim.run(until=1.0)
        wnic.wake()
        sim.run(until=2.0)
        wnic.sleep()
        rows = list(obs.trace.query("wnic.transition"))
        assert [(r.time, r.fields["state"]) for r in rows] == [
            (1.0, "idle"),
            (2.0, "sleep"),
        ]


class TestAwakeIntervals:
    def test_always_awake(self):
        sim = Simulator()
        wnic = Wnic(sim, "c1")
        sim.run(until=10.0)
        assert wnic.awake_intervals(10.0) == [(0.0, 10.0)]

    def test_always_asleep(self):
        sim = Simulator()
        wnic = Wnic(sim, "c1", start_asleep=True)
        sim.run(until=10.0)
        assert wnic.awake_intervals(10.0) == []

    def test_interleaved_intervals(self):
        sim = Simulator()
        wnic = Wnic(sim, "c1", start_asleep=True)
        for wake_at, sleep_at in [(1.0, 2.0), (4.0, 7.0)]:
            sim.call_at(wake_at, wnic.wake)
            sim.call_at(sleep_at, wnic.sleep)
        sim.run()
        assert wnic.awake_intervals(10.0) == [(1.0, 2.0), (4.0, 7.0)]
        assert wnic.awake_time(10.0) == pytest.approx(4.0)

    def test_open_interval_clipped_to_end_time(self):
        sim = Simulator()
        wnic = Wnic(sim, "c1", start_asleep=True)
        sim.call_at(3.0, wnic.wake)
        sim.run()
        assert wnic.awake_intervals(5.0) == [(3.0, 5.0)]

    def test_end_time_before_last_transition_raises(self):
        sim = Simulator()
        wnic = Wnic(sim, "c1", start_asleep=True)
        sim.call_at(5.0, wnic.wake)
        sim.run()
        with pytest.raises(ConfigurationError):
            wnic.awake_intervals(1.0)
