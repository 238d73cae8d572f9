"""Runtime-suite wiring: per-test timeouts and strict asyncio runs.

The live-runtime tests exercise real sockets and real tasks, so two
failure modes need infrastructure the simulator suites don't:

* **Hangs.** A deadlocked relay or un-drained writer would wedge the
  whole suite. Every test in this directory gets a hard per-test
  timeout: via the ``pytest-timeout`` plugin when it is installed (CI
  installs it), otherwise via a SIGALRM fallback implemented here —
  same ``@pytest.mark.timeout(N)`` marker, no extra dependency.
* **Silent leaks.** asyncio reports orphaned tasks and never-retrieved
  exceptions through the loop exception handler and ResourceWarnings,
  which pytest does not fail on by default. :func:`run_strict` runs a
  coroutine in debug mode and *asserts* zero unhandled exceptions and
  zero tasks still pending afterwards — the teardown contract of
  ``AsyncProxy.stop()``.
"""

import asyncio
import gc
import signal
import warnings

import pytest

#: Applied to every test in this directory with no explicit marker.
DEFAULT_TIMEOUT_S = 60.0

try:
    import pytest_timeout  # noqa: F401

    HAVE_PYTEST_TIMEOUT = True
except ImportError:
    HAVE_PYTEST_TIMEOUT = False

_CAN_ALARM = hasattr(signal, "SIGALRM")


def _timeout_for(item) -> float:
    marker = item.get_closest_marker("timeout")
    if marker is not None and marker.args:
        return float(marker.args[0])
    return DEFAULT_TIMEOUT_S


if not HAVE_PYTEST_TIMEOUT and _CAN_ALARM:

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(item):
        limit = _timeout_for(item)

        def on_alarm(signum, frame):
            raise TimeoutError(
                f"test exceeded the {limit:.0f}s runtime-suite timeout"
            )

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            return (yield)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def run_strict(coro, timeout_s: float = 30.0):
    """Run ``coro`` under asyncio debug mode with leak assertions.

    Fails the test when, after the coroutine finishes:

    * the loop exception handler saw any unhandled exception (task
      crashes, transport errors, never-retrieved task exceptions), or
    * any task other than the runner itself is still pending, or
    * garbage collection raises a ResourceWarning for an unclosed
      transport or event loop resource.
    """
    unhandled: list[dict] = []

    async def main():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(
            lambda _loop, context: unhandled.append(context)
        )
        try:
            return await asyncio.wait_for(coro, timeout_s)
        finally:
            # Let done-callbacks and cancellations settle, then force
            # collection so never-retrieved task exceptions surface
            # through the handler while the loop is still alive.
            await asyncio.sleep(0)
            gc.collect()
            current = asyncio.current_task()
            pending = [
                task for task in asyncio.all_tasks(loop)
                if task is not current
            ]
            assert not pending, f"leaked pending tasks: {pending!r}"

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        result = asyncio.run(main(), debug=True)
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, f"resource warnings: {[str(w.message) for w in leaks]!r}"
    assert not unhandled, (
        "unhandled loop exceptions: "
        f"{[c.get('message') for c in unhandled]!r}"
    )
    return result


@pytest.fixture
def fast_dials(monkeypatch):
    """One 0.5 s origin dial and no retries, so a dead origin fails fast."""
    from repro.runtime import proxy as proxy_module

    monkeypatch.setattr(proxy_module, "DIAL_TIMEOUT_S", 0.5)
    monkeypatch.setattr(proxy_module, "DIAL_RETRIES", 0)


@pytest.fixture
def fast_reaper(monkeypatch):
    """A 50 ms liveness poll, fine enough for sub-second silence windows."""
    from repro.runtime import proxy as proxy_module

    monkeypatch.setattr(proxy_module, "REAP_INTERVAL_S", 0.05)
