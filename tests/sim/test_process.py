"""Unit tests for generator-based processes."""

import pytest

from repro.errors import ProcessError
from repro.sim import Simulator
from repro.sim.process import Process


class TestProcessBasics:
    def test_process_advances_through_timeouts(self):
        sim = Simulator()
        log = []

        def worker():
            log.append(sim.now)
            yield sim.timeout(1.0)
            log.append(sim.now)
            yield sim.timeout(2.5)
            log.append(sim.now)

        sim.process(worker())
        sim.run()
        assert log == [0.0, 1.0, 3.5]

    def test_process_receives_event_value(self):
        sim = Simulator()
        got = []

        def worker():
            value = yield sim.timeout(1.0, value=42)
            got.append(value)

        sim.process(worker())
        sim.run()
        assert got == [42]

    def test_process_return_value_becomes_event_value(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(worker())
        sim.run()
        assert proc.value == "done"

    def test_process_join_by_yield(self):
        sim = Simulator()
        results = []

        def child():
            yield sim.timeout(2.0)
            return "child-result"

        def parent():
            result = yield sim.process(child())
            results.append((sim.now, result))

        sim.process(parent())
        sim.run()
        assert results == [(2.0, "child-result")]

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(ProcessError):
            Process(sim, lambda: None)

    def test_yielding_non_event_raises(self):
        sim = Simulator()

        def bad():
            yield 17

        sim.process(bad())
        with pytest.raises(ProcessError):
            sim.run()

    def test_unhandled_exception_propagates(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        sim.process(bad())
        with pytest.raises(ValueError, match="boom"):
            sim.run()


class TestFailurePropagation:
    def test_failed_event_is_thrown_into_process(self):
        sim = Simulator()
        caught = []

        def worker():
            event = sim.event()
            sim.call_at(1.0, lambda: event.fail(RuntimeError("bad")))
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(worker())
        sim.run()
        assert caught == ["bad"]
