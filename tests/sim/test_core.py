"""Unit tests for the simulation event loop and primitive events."""

import gc

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim import core


class TestSimulatorClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_run_empty_is_noop(self):
        sim = Simulator()
        sim.run()
        assert sim.now == 0.0

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_until_in_past_raises(self):
        sim = Simulator()
        sim.run(until=2.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_peek_empty_is_infinite(self):
        assert Simulator().peek() == float("inf")

    def test_step_without_events_raises(self):
        with pytest.raises(SimulationError):
            Simulator().step()


class TestTimeout:
    def test_timeout_fires_at_delay(self):
        sim = Simulator()
        fired = []
        sim.timeout(3.5).add_callback(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [3.5]

    def test_timeout_carries_value(self):
        sim = Simulator()
        seen = []
        sim.timeout(1.0, value="payload").add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["payload"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-0.1)

    def test_zero_delay_fires_immediately(self):
        sim = Simulator()
        fired = []
        sim.timeout(0.0).add_callback(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [0.0]

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for label in "abc":
            sim.timeout(1.0, value=label).add_callback(
                lambda e: order.append(e.value)
            )
        sim.run()
        assert order == ["a", "b", "c"]

    def test_run_until_excludes_later_events(self):
        sim = Simulator()
        fired = []
        sim.timeout(1.0).add_callback(lambda e: fired.append(1))
        sim.timeout(2.0).add_callback(lambda e: fired.append(2))
        sim.run(until=1.5)
        assert fired == [1]
        assert sim.now == 1.5


class TestEvent:
    def test_value_before_trigger_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.event().value

    def test_succeed_twice_raises(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")

    def test_fail_marks_not_ok(self):
        sim = Simulator()
        event = sim.event()
        event.fail(RuntimeError("boom"))
        sim.run()
        assert not event.ok
        assert isinstance(event.value, RuntimeError)

    def test_callback_after_processed_runs_immediately(self):
        sim = Simulator()
        event = sim.event()
        event.succeed("x")
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]

    def test_call_at_runs_function_at_absolute_time(self):
        sim = Simulator()
        times = []
        sim.call_at(4.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [4.0]

    def test_call_at_past_raises(self):
        sim = Simulator()
        sim.run(until=2.0)
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)


class TestHeapEntries:
    """Every entry is ``(time, seq, fn, arg)``; ``arg`` may be ``None``."""

    def test_one_argument_timers_pass_none_through(self):
        sim = Simulator()
        calls = []
        sim.call_later1(1.0, lambda *args: calls.append(args), None)
        sim.call_at1(2.0, lambda *args: calls.append(args), None)
        sim.run()
        assert calls == [(None,), (None,)]

    def test_plain_timers_call_with_no_argument(self):
        sim = Simulator()
        calls = []
        sim.call_later(1.0, lambda *args: calls.append(args))
        sim.call_at(2.0, lambda *args: calls.append(args))
        sim.run()
        assert calls == [(), ()]

    @staticmethod
    def _program(sim: Simulator, fired: list) -> None:
        """Ties across every entry kind, with entries that schedule more."""
        for delay in (1.0, 0.0, 1.0, 0.5):
            sim.call_later(delay, lambda d=delay: fired.append(("later", d)))
            sim.call_later1(delay, fired.append, ("later1", delay))
            sim.call_at(delay, lambda d=delay: fired.append(("at", d)))
            sim.call_at1(delay, fired.append, ("at1", delay))
            sim.timeout(delay, delay).add_callback(
                lambda e: fired.append(("timeout", e.value))
            )
        event = sim.event()
        event.add_callback(lambda e: fired.append(("event", e.value)))
        sim.call_later1(0.5, event.succeed, "late")
        sim.call_later(
            1.0, lambda: sim.call_later1(0.0, fired.append, ("nested", 1.0))
        )

    def test_step_fires_entries_in_run_order(self):
        ran = Simulator()
        by_run: list = []
        self._program(ran, by_run)
        ran.run()
        stepped = Simulator()
        by_step: list = []
        self._program(stepped, by_step)
        while stepped.peek() != float("inf"):
            stepped.step()
        assert len(by_run) == 22
        assert by_step == by_run
        assert stepped._seq == ran._seq


class TestConditions:
    def test_any_of_fires_on_first(self):
        sim = Simulator()
        t1, t2 = sim.timeout(1.0, "fast"), sim.timeout(2.0, "slow")
        results = []
        sim.any_of([t1, t2]).add_callback(lambda e: results.append(dict(e.value)))
        sim.run()
        assert results[0] == {t1: "fast"}

    def test_any_of_empty_fires_immediately(self):
        sim = Simulator()
        cond = sim.any_of([])
        assert cond.triggered

    def test_all_of_waits_for_everything(self):
        sim = Simulator()
        t1, t2 = sim.timeout(1.0, "a"), sim.timeout(2.0, "b")
        when = []
        sim.all_of([t1, t2]).add_callback(lambda e: when.append(sim.now))
        sim.run()
        assert when == [2.0]

    def test_all_of_collects_values(self):
        sim = Simulator()
        t1, t2 = sim.timeout(1.0, "a"), sim.timeout(2.0, "b")
        values = []
        sim.all_of([t1, t2]).add_callback(lambda e: values.append(dict(e.value)))
        sim.run()
        assert values[0] == {t1: "a", t2: "b"}


@pytest.fixture
def collector_on():
    """The cyclic collector on at the start, and on again afterwards."""
    was_on = gc.isenabled()
    gc.enable()
    yield
    if was_on:
        gc.enable()
    else:
        gc.disable()


def _keeping(sim: Simulator, n: int) -> list:
    """Schedules ten callbacks that together keep ``n`` new lists.

    Each popped event frees tracked objects (its heap entry and
    closure), so a run adds to the collector's pending count only if
    its callbacks keep more than that.
    """
    kept: list = []
    for i in range(10):
        sim.call_at(i * 0.001, lambda: kept.extend([] for _ in range(n // 10)))
    return kept


class _CollectorSpy:
    """Stands in for the ``gc`` module and records what is asked of it."""

    def __init__(self) -> None:
        self.asked: list[str] = []

    def __getattr__(self, name):
        self.asked.append(name)
        return getattr(gc, name)


@pytest.mark.usefixtures("collector_on")
class TestCollector:
    """``Simulator.run`` pauses the cyclic collector and hands it back
    as it found it."""

    def test_on_after_a_run_to_the_end(self):
        sim = Simulator()
        _keeping(sim, 10)
        sim.run()
        assert gc.isenabled()

    def test_on_after_a_run_until(self):
        sim = Simulator()
        _keeping(sim, 10)
        sim.run(until=0.005)
        assert gc.isenabled()
        assert sim.now == 0.005

    def test_on_after_a_callback_raises(self):
        sim = Simulator()

        def fail() -> None:
            raise ValueError("boom")

        sim.call_at(1.0, fail)
        with pytest.raises(ValueError):
            sim.run()
        assert gc.isenabled()

    def test_off_during_the_run(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False]

    def test_left_off_and_uncollected_if_the_caller_turned_it_off(self):
        gc.disable()
        sim = Simulator()
        kept = _keeping(sim, 3000)
        sim.run()
        pending = gc.get_count()[0]
        assert not gc.isenabled()
        assert len(kept) == 3000
        # No young pass ran: the run's allocations are still pending.
        assert pending > 2000

    def test_young_generation_collected_on_return(self):
        sim = Simulator()
        kept = _keeping(sim, 3000)
        sim.run()
        # Read before anything allocates: without the pass on return,
        # the 3000 lists would still be pending, far past the
        # collector's threshold of 700, and paid at the next allocation.
        pending = gc.get_count()[0]
        assert len(kept) == 3000
        assert pending < 700

    def test_step_does_not_touch_the_collector(self, monkeypatch):
        spy = _CollectorSpy()
        monkeypatch.setattr(core, "gc", spy)
        sim = Simulator()
        _keeping(sim, 2)
        sim.step()
        assert spy.asked == []
        sim.run()
        assert "disable" in spy.asked
