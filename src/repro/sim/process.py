"""Generator-based simulation processes.

A process is a Python generator that yields :class:`~repro.sim.core.Event`
objects. When a yielded event fires, the process resumes with the event's
value (or the event's exception is thrown into the generator, so failures
propagate naturally and can be handled with ``try/except``).

A :class:`Process` is itself an event: it fires with the generator's
return value when the generator finishes, so processes can be joined by
yielding them and composed with ``any_of``/``all_of``.

Hot-path note: process startup and resumption dominate sweep profiles
(hundreds of thousands of spawns/resumes per cold figure-4 run), so the
bootstrap is a single timer entry instead of a full Event,
the generator's ``send``/``throw`` and the ``_resume`` bound method are
cached once per process, and ``_resume`` reads Event slots directly
instead of going through property descriptors. The enqueue order is
identical to the pre-optimization kernel (one push at spawn, one per
completion), so traces stay byte-for-byte the same.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import ProcessError
from repro.sim.core import Event, Simulator


class _StartTrigger:
    """Shared ok/None trigger the bootstrap hands to ``_resume``."""

    __slots__ = ()
    _ok = True
    _value = None


_START = _StartTrigger()


class Process(Event):
    """A running simulation process wrapping a generator."""

    __slots__ = ("_generator", "name", "_send", "_throw", "_resume_cb")

    def __init__(self, sim: Simulator, generator: Generator) -> None:
        try:
            send = generator.send
            throw = generator.throw
        except AttributeError:
            raise ProcessError(
                f"Process needs a generator, got {type(generator).__name__}"
            ) from None
        super().__init__(sim)
        self._generator = generator
        self._send = send
        self._throw = throw
        self._resume_cb = self._resume
        self.name = getattr(generator, "__name__", "process")
        # Kick off the process at the current instant (one heap push,
        # exactly like the bootstrap Event it replaces).
        sim.call_later(0.0, self._bootstrap)

    def _bootstrap(self) -> None:
        self._resume(_START)

    # -- internal ----------------------------------------------------------

    def _resume(self, trigger) -> None:
        # The one event the process waits on resumes it, exactly once.
        try:
            if trigger._ok:
                target = self._send(trigger._value)
            else:
                target = self._throw(trigger._value)
        except StopIteration as stop:
            # Finished: drop the bound method that points back at this
            # process, so reference counting frees it (no cycle left
            # for the paused collector; see Simulator.run).
            self._resume_cb = None
            self.succeed(stop.value)
            return
        except BaseException as exc:  # propagate real errors loudly
            self._resume_cb = None
            self.fail(exc)
            raise
        if not isinstance(target, Event):
            raise ProcessError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances"
            )
        callbacks = target.callbacks
        if callbacks is None:  # already processed: resume immediately
            self._resume(target)
        else:
            callbacks.append(self._resume_cb)
