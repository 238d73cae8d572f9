"""Simulator event loop and primitive events.

The kernel is intentionally small: a binary heap of ``(time, seq, fn,
arg)`` tuples and an :class:`Event` type with success/failure
semantics. Processes (see :mod:`repro.sim.process`) are built on top of
these primitives.

Determinism: two events scheduled for the same instant fire in the order
they were scheduled (the monotonically increasing ``seq`` breaks ties),
so a simulation with fixed RNG seeds is exactly reproducible.

Performance: this is the hottest code in the repository — a cold
figure-4 sweep pops over a million heap entries — so the hot paths are
deliberately flat:

* every heap entry has the one shape ``(time, seq, fn, arg)``, and
  firing it is ``fn()`` when ``arg`` is the private no-argument
  sentinel and ``fn(arg)`` otherwise: a timer
  (:meth:`Simulator.call_later` / ``call_at`` and their one-argument
  siblings) carries its callable in the tuple, and a triggered
  :class:`Event` carries ``Event._run_callbacks`` with itself as
  ``arg``, so no entry allocates a cell or costs an extra frame;
* :meth:`Simulator.run` inlines the pop/advance/dispatch loop instead
  of calling :meth:`Simulator.step` per event;
* :class:`Timeout` initializes its slots and pushes onto the heap
  directly rather than chaining through ``Event.__init__``;
* :meth:`Simulator.run` pauses the cyclic garbage collector, which
  would walk every object the run keeps and free nothing.

Every shortcut preserves the enqueue *order* (one heap push per
scheduling action, in the same program order), which is what keeps
same-seed runs byte-identical with the pre-optimization kernel — the
contract pinned by ``tests/sim/test_kernel_equivalence.py``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.errors import SimulationError

#: The ``arg`` of a heap entry whose ``fn`` takes no argument. A
#: sentinel rather than ``None``: ``call_later1(d, fn, None)`` must
#: still call ``fn(None)``.
_NO_ARG = object()


@contextmanager
def paused_collector() -> Iterator[None]:
    """Pause the cyclic garbage collector for the ``with`` body.

    If it was on at entry, it is switched back on at exit and makes one
    young pass, over what the body allocated; a caller that switched it
    off (an enclosing pause, say) gets it back off, with no pass.
    """
    collector_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collector_on:
            gc.enable()
            gc.collect(0)


class Event:
    """A happening at a point in simulated time.

    An event starts *pending*, becomes *triggered* once scheduled with a
    value, and is *processed* after its callbacks have run. Callbacks are
    plain callables receiving the event.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled", "_processed")

    #: Sentinel for "no value yet".
    _PENDING = object()

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = Event._PENDING
        self._ok: bool = True
        self._scheduled = False
        self._processed = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is Event._PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not Event._PENDING:
            raise SimulationError("event has already been triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        if self._scheduled:
            raise SimulationError("event is already scheduled")
        self._scheduled = True
        sim._seq += 1
        heappush(sim._heap, (sim._now, sim._seq, Event._run_callbacks, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._value is not Event._PENDING:
            raise SimulationError("event has already been triggered")
        self._ok = False
        self._value = exception
        sim = self.sim
        if self._scheduled:
            raise SimulationError("event is already scheduled")
        self._scheduled = True
        sim._seq += 1
        heappush(sim._heap, (sim._now, sim._seq, Event._run_callbacks, self))
        return self

    def _run_callbacks(self) -> None:
        callbacks = self.callbacks
        self.callbacks = None
        self._processed = True
        if callbacks:
            for callback in callbacks:
                callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event is processed.

        If the event was already processed the callback runs immediately.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        # Flattened Event.__init__ and scheduling: a Timeout is born
        # triggered and scheduled, so the generic machinery is pure
        # overhead on the hottest allocation in the simulator.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self._processed = False
        self.delay = delay
        sim._seq += 1
        heappush(
            sim._heap, (sim._now + delay, sim._seq, Event._run_callbacks, self)
        )


class AnyOf(Event):
    """Fires when the first of ``events`` fires.

    Value is a dict mapping the fired event(s) to their values (events
    that fired at the same instant are all included).
    """

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._value is not Event._PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        fired = {e: e._value for e in self._events if e._processed and e._ok}
        self.succeed(fired)


class AllOf(Event):
    """Fires when all of ``events`` have fired successfully."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed({})
            return
        for event in self._events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._value is not Event._PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({e: e._value for e in self._events})


class Simulator:
    """Discrete-event simulator with a heap-based event loop."""

    #: Lazily resolved ``repro.sim.process.Process`` (import cycle:
    #: process.py imports this module at import time).
    _process_cls: Optional[type] = None

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[..., None], Any]] = []
        self._seq = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling ---------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when every one of ``events`` has fired."""
        return AllOf(self, events)

    def process(self, generator) -> "Process":
        """Start a new process from a generator (see :class:`Process`)."""
        cls = Simulator._process_cls
        if cls is None:
            from repro.sim.process import Process

            Simulator._process_cls = cls = Process
        return cls(self, generator)

    def call_later(self, delay: float, func: Callable[[], None]) -> None:
        """Run ``func()`` ``delay`` seconds from now (fire-and-forget).

        The cheap sibling of :meth:`call_at`: one heap push, no Event.
        """
        if delay < 0:
            raise SimulationError(f"negative call_later delay: {delay!r}")
        self._seq += 1
        heappush(self._heap, (self._now + delay, self._seq, func, _NO_ARG))

    def call_later1(
        self, delay: float, func: Callable[[Any], None], arg: Any
    ) -> None:
        """Run ``func(arg)`` ``delay`` seconds from now (fire-and-forget)."""
        if delay < 0:
            raise SimulationError(f"negative call_later delay: {delay!r}")
        self._seq += 1
        heappush(self._heap, (self._now + delay, self._seq, func, arg))

    def call_at(self, when: float, func: Callable[[], None]) -> None:
        """Run ``func()`` at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {when} < now={self._now}"
            )
        self._seq += 1
        heappush(self._heap, (when, self._seq, func, _NO_ARG))

    def call_at1(
        self, when: float, func: Callable[[Any], None], arg: Any
    ) -> None:
        """Run ``func(arg)`` at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {when} < now={self._now}"
            )
        self._seq += 1
        heappush(self._heap, (when, self._seq, func, arg))

    # -- running --------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if none is pending."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event.

        Raises:
            SimulationError: if no events are pending, or a process died
                with an unhandled exception.
        """
        if not self._heap:
            raise SimulationError("no scheduled events to step")
        when, _seq, fn, arg = heappop(self._heap)
        if when < self._now:
            raise SimulationError("event heap corrupted: time went backwards")
        self._now = when
        if arg is _NO_ARG:
            fn()
        else:
            fn(arg)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or ``until`` (exclusive of later events).

        When ``until`` is given, simulated time is advanced to exactly
        ``until`` even if no event falls on that instant.

        The loop runs under :func:`paused_collector`: it makes no
        reference cycles, so a collection during it would free nothing.
        """
        with paused_collector():
            # The loop body is step() inlined: at >1M events per sweep
            # the method dispatch and repeated attribute loads are
            # measurable.
            heap = self._heap
            no_arg = _NO_ARG
            if until is None:
                while heap:
                    self._now, _seq, fn, arg = heappop(heap)
                    if arg is no_arg:
                        fn()
                    else:
                        fn(arg)
                return
            if until < self._now:
                raise SimulationError(
                    f"until={until} is in the past (now={self._now})"
                )
            while heap and heap[0][0] <= until:
                self._now, _seq, fn, arg = heappop(heap)
                if arg is no_arg:
                    fn()
                else:
                    fn(arg)
            self._now = until
