"""Waitable resources for simulation processes.

:class:`Store` is an unbounded (or capacity-bounded) FIFO of items with
event-returning ``put``/``get``. It hands out items in strict request
order, which keeps simulations deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import SimulationError
from repro.sim.core import Event, Simulator


class Store:
    """FIFO item store with waitable get/put.

    Args:
        sim: owning simulator.
        capacity: maximum number of buffered items (``None`` = unbounded).
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity!r}")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of buffered items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Deposit ``item``; the returned event fires once it is stored."""
        event = self.sim.event()
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed(None)
            self._service_getters()
        else:
            self._putters.append((event, item))
        return event

    def try_put(self, item: Any) -> bool:
        """Non-waiting put; returns False if the store is full."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        self._service_getters()
        return True

    def get(self) -> Event:
        """Request the oldest item; the returned event fires with it."""
        event = self.sim.event()
        self._getters.append(event)
        self._service_getters()
        return event

    def try_get(self) -> Any:
        """Non-waiting get; returns None when empty.

        Only valid when no getters are queued (otherwise it would jump
        the FIFO line).
        """
        if self._getters:
            raise SimulationError("try_get would bypass waiting getters")
        if not self._items:
            return None
        item = self._items.popleft()
        self._admit_putters()
        return item

    # -- internal ----------------------------------------------------------

    def _service_getters(self) -> None:
        while self._getters and self._items:
            getter = self._getters.popleft()
            item = self._items.popleft()
            getter.succeed(item)
            self._admit_putters()

    def _admit_putters(self) -> None:
        while self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            putter, item = self._putters.popleft()
            self._items.append(item)
            putter.succeed(None)
