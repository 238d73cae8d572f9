"""Unit tests for Store."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator, Store


class TestStore:
    def test_put_then_get_is_fifo(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def producer():
            for item in ("a", "b", "c"):
                yield store.put(item)

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == ["a", "b", "c"]

    def test_get_waits_for_put(self):
        sim = Simulator()
        store = Store(sim)
        arrival = []

        def consumer():
            item = yield store.get()
            arrival.append((sim.now, item))

        def producer():
            yield sim.timeout(5.0)
            yield store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert arrival == [(5.0, "late")]

    def test_capacity_blocks_putter(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        log = []

        def producer():
            yield store.put("first")
            log.append(("stored-first", sim.now))
            yield store.put("second")
            log.append(("stored-second", sim.now))

        def consumer():
            yield sim.timeout(2.0)
            item = yield store.get()
            log.append(("got", item, sim.now))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert log[0] == ("stored-first", 0.0)
        assert log[1] == ("got", "first", 2.0)
        assert log[2] == ("stored-second", 2.0)

    def test_try_put_respects_capacity(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        assert store.try_put(1)
        assert store.try_put(2)
        assert not store.try_put(3)
        assert store.items == (1, 2)

    def test_try_get_returns_none_when_empty(self):
        sim = Simulator()
        assert Store(sim).try_get() is None

    def test_try_get_with_waiting_getters_raises(self):
        sim = Simulator()
        store = Store(sim)

        def consumer():
            yield store.get()

        sim.process(consumer())
        sim.run()
        with pytest.raises(SimulationError):
            store.try_get()

    def test_bad_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Store(Simulator(), capacity=0)

    def test_len_tracks_buffered_items(self):
        sim = Simulator()
        store = Store(sim)
        store.try_put("x")
        store.try_put("y")
        assert len(store) == 2
        store.try_get()
        assert len(store) == 1
