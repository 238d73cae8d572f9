"""Task supervision for the live runtime.

The live proxy runs several long-lived asyncio tasks (scheduler,
liveness reaper, per-connection relays). A single unexpected exception
in any of them must never silently halt the service — the failure mode
the paper's graceful-degradation story forbids. :class:`TaskSupervisor`
owns every task the runtime spawns:

* **supervised services** (``supervise=True``) are restarted with a
  bounded backoff when they die unexpectedly, and the failure is
  counted and logged;
* **plain tasks** (connection relays) are tracked so shutdown can
  cancel and *await* every one of them — the guarantee behind the
  zero-orphaned-tasks teardown tests.

``stop()`` is idempotent and total: after it returns there is no task
owned by the supervisor still pending.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Awaitable, Callable, Coroutine, Optional

from repro.errors import ConfigurationError

log = logging.getLogger("repro.runtime")

#: First restart backoff of a crashed service; doubles per restart.
RESTART_BACKOFF_S = 0.05
#: Cap on the doubling restart backoff.
RESTART_BACKOFF_MAX_S = 1.0


class TaskSupervisor:
    """Owns, restarts, and reliably tears down runtime tasks."""

    def __init__(
        self,
        on_restart: Optional[Callable[[str, BaseException], None]] = None,
    ) -> None:
        self.on_restart = on_restart
        self.restarts = 0
        self.failures: list[tuple[str, BaseException]] = []
        self._services: dict[str, asyncio.Task] = {}
        self._tasks: set[asyncio.Task] = set()
        self._stopping = False

    # -- spawning ----------------------------------------------------------

    def supervise(
        self, name: str, factory: Callable[[], Awaitable[None]]
    ) -> asyncio.Task:
        """Run ``factory()`` forever, restarting it on unexpected death.

        A supervised service is expected to run until cancelled; both a
        raised exception *and* a clean return are treated as failures
        and trigger a restart (after a bounded exponential backoff).
        """
        if self._stopping:
            raise ConfigurationError(
                f"supervisor stopping; cannot start {name!r}"
            )
        if name in self._services:
            raise ConfigurationError(f"service {name!r} already supervised")
        task = asyncio.create_task(self._run_service(name, factory), name=name)
        self._services[name] = task
        return task

    def spawn(self, coro: Coroutine, name: str = "") -> asyncio.Task:
        """Track a plain (non-restarted) task until it completes."""
        task = asyncio.create_task(coro, name=name or None)
        self._tasks.add(task)
        task.add_done_callback(self._reap_task)
        return task

    def _reap_task(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            # Retrieve and record the exception so it never surfaces as
            # an "exception was never retrieved" unhandled-task report.
            self.failures.append((task.get_name(), exc))
            log.exception(
                "runtime task %r failed", task.get_name(), exc_info=exc
            )

    async def _run_service(
        self, name: str, factory: Callable[[], Awaitable[None]]
    ) -> None:
        backoff = RESTART_BACKOFF_S
        while True:
            try:
                await factory()
                failure: BaseException = RuntimeError(
                    f"service {name!r} returned unexpectedly"
                )
                log.error("supervised service %r returned unexpectedly", name)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                failure = exc
                log.exception(
                    "supervised service %r died; restarting in %.3fs",
                    name, backoff,
                )
            self.restarts += 1
            self.failures.append((name, failure))
            if self.on_restart is not None:
                self.on_restart(name, failure)
            await asyncio.sleep(backoff)
            backoff = min(backoff * 2.0, RESTART_BACKOFF_MAX_S)

    # -- teardown ----------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of tasks the supervisor still owns."""
        return len(self._tasks) + sum(
            1 for t in self._services.values() if not t.done()
        )

    async def stop(self) -> None:
        """Cancel and await everything; idempotent."""
        self._stopping = True
        everything = list(self._services.values()) + list(self._tasks)
        for task in everything:
            task.cancel()
        for task in everything:
            try:
                await task
            except asyncio.CancelledError:  # repro: noqa[ASY005] -- stop() cancelled every task one loop up; absorbing the echo is the reap
                pass  # cancellation is the expected teardown outcome
            except Exception as exc:
                log.debug(
                    "task %r raised during teardown: %r",
                    task.get_name(), exc,
                )
        self._services.clear()
        self._tasks.clear()
