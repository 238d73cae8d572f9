"""Layer tracing from outside the program.

:class:`LayerTracer` wraps each function the layer ledger names with a
timer, keeps a nesting stack so every wrapped call is charged only its
self time (its duration minus the wrapped calls inside it), and puts
the original functions back when the traced phase ends. Nothing is
wrapped in an untraced run: the tracer is only created by one.

Coroutine functions cannot be timed on a stack (other tasks run while
they await), so they record their call count and their wall seconds
from call to return.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import AbstractContextManager, contextmanager, nullcontext
from typing import Any, Callable, Iterator, Optional

from perfbench.layers import Layer


class _Stats:
    __slots__ = ("calls", "self_s", "total")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total = 0


class LayerTracer:
    """Installs timing wrappers around the ledger's functions."""

    def __init__(self, layers: tuple[Layer, ...]) -> None:
        self.layers = layers
        self.stats = {layer.name: _Stats() for layer in layers}
        #: Ledger entries whose target does not exist in this program.
        self.missing: list[str] = []
        #: Child seconds accumulated by each open wrapped frame.
        self._stack: list[float] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- wrappers ----------------------------------------------------------

    def _sync_wrapper(self, fn: Callable, stats: _Stats, sum_result: bool):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stats.calls += 1
                stats.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if sum_result:
                stats.total += result
            return result

        return wrapper

    def _async_wrapper(self, fn: Callable, stats: _Stats):
        clock = time.perf_counter

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            started = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                stats.calls += 1
                stats.self_s += clock() - started

        return wrapper

    def _wrap(self, fn: Callable, layer: Layer) -> Callable:
        stats = self.stats[layer.name]
        if inspect.iscoroutinefunction(fn):
            return self._async_wrapper(fn, stats)
        return self._sync_wrapper(fn, stats, layer.sum_result)

    # -- install / restore -------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for layer in self.layers:
            try:
                module = importlib.import_module(layer.module)
            except ImportError:
                self.missing.append(layer.name)
                continue
            *owner_path, attr = layer.qualname.split(".")
            owner: Any = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = None if owner is None else owner.__dict__.get(attr)
            if raw is None:
                self.missing.append(layer.name)
            elif isinstance(raw, (classmethod, staticmethod)):
                self._patch(owner, attr, type(raw)(self._wrap(raw.__func__, layer)))
            elif owner is module:
                # A module function is also bound by name wherever it was
                # imported with ``from ... import``: patch every binding.
                wrapped = self._wrap(raw, layer)
                for other in list(sys.modules.values()):
                    if getattr(other, "__dict__", {}).get(attr) is raw:
                        self._patch(other, attr, wrapped)
            else:
                self._patch(owner, attr, self._wrap(raw, layer))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self) -> Iterator[None]:
        """The wrappers are installed inside, and only inside."""
        self.install()
        try:
            yield
        finally:
            self.restore()

    @contextmanager
    def excluded(self) -> Iterator[None]:
        """Time spent inside is charged to no wrapped function (the
        reference kernel runs here)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            if self._stack:
                self._stack[-1] += time.perf_counter() - started

    def metrics(self, scale: float) -> dict[str, float]:
        """``<name>.calls`` and ``<name>.self_s`` (times ``scale``) for
        every layer, or the unscaled ``<name>.wall_s`` of a coroutine,
        plus ``<name>.bytes`` where results are summed."""
        out: dict[str, float] = {}
        for layer in self.layers:
            stats = self.stats[layer.name]
            out[f"{layer.name}.calls"] = stats.calls
            if layer.awaited:
                out[f"{layer.name}.wall_s"] = stats.self_s
            else:
                out[f"{layer.name}.self_s"] = stats.self_s * scale
            if layer.sum_result:
                out[f"{layer.name}.bytes"] = stats.total
        return out


def guards(
    tracer: Optional[LayerTracer],
) -> tuple[AbstractContextManager, Callable[[], AbstractContextManager]]:
    """(the traced-phase scope, the kernel exclusion) of a run; both do
    nothing in an untraced run."""
    if tracer is None:
        return nullcontext(), nullcontext
    return tracer.active(), tracer.excluded
