"""TaskSupervisor: restart-on-crash, exception retrieval, total teardown."""

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.runtime import supervisor as supervisor_module
from repro.runtime.supervisor import TaskSupervisor

from tests.runtime.conftest import run_strict


@pytest.fixture
def fast_restarts(monkeypatch):
    monkeypatch.setattr(supervisor_module, "RESTART_BACKOFF_S", 0.01)


class TestSupervisedServices:
    def test_crashing_service_is_restarted(self, fast_restarts):
        async def scenario():
            runs = []
            restarts = []
            supervisor = TaskSupervisor(
                on_restart=lambda name, exc: restarts.append((name, exc)),
            )

            async def flaky():
                runs.append(1)
                if len(runs) < 3:
                    raise RuntimeError(f"crash #{len(runs)}")
                await asyncio.sleep(60)  # healthy at last

            supervisor.supervise("flaky", flaky)
            while len(runs) < 3:
                await asyncio.sleep(0.01)
            await supervisor.stop()
            return runs, restarts, supervisor

        runs, restarts, supervisor = run_strict(scenario())
        assert len(runs) == 3
        assert supervisor.restarts == 2
        assert [name for name, _exc in restarts] == ["flaky", "flaky"]
        assert all(
            isinstance(exc, RuntimeError) for _name, exc in restarts
        )

    def test_unexpected_return_is_restarted(self, fast_restarts):
        async def scenario():
            runs = []
            supervisor = TaskSupervisor()

            async def quitter():
                runs.append(1)
                if len(runs) >= 2:
                    await asyncio.sleep(60)
                # else: returns — a supervised service must never do that

            supervisor.supervise("quitter", quitter)
            while len(runs) < 2:
                await asyncio.sleep(0.01)
            await supervisor.stop()
            return runs, supervisor

        runs, supervisor = run_strict(scenario())
        assert supervisor.restarts == 1
        assert "returned unexpectedly" in str(supervisor.failures[0][1])

    def test_duplicate_service_name_rejected(self):
        async def scenario():
            supervisor = TaskSupervisor()

            async def service():
                await asyncio.sleep(60)

            supervisor.supervise("svc", service)
            with pytest.raises(ConfigurationError, match="already supervised"):
                supervisor.supervise("svc", service)
            await supervisor.stop()

        run_strict(scenario())

    def test_supervise_after_stop_rejected(self):
        async def scenario():
            supervisor = TaskSupervisor()
            await supervisor.stop()
            with pytest.raises(ConfigurationError, match="stopping"):
                supervisor.supervise("late", asyncio.Event().wait)

        run_strict(scenario())


class TestPlainTasks:
    def test_spawned_task_exception_is_retrieved(self):
        """A crashing relay task is reaped into .failures — never an
        'exception was never retrieved' report (run_strict asserts the
        loop handler stayed silent)."""

        async def scenario():
            supervisor = TaskSupervisor()

            async def doomed():
                raise ValueError("relay died")

            supervisor.spawn(doomed(), name="doomed")
            await asyncio.sleep(0.05)
            await supervisor.stop()
            return supervisor

        supervisor = run_strict(scenario())
        assert [name for name, _ in supervisor.failures] == ["doomed"]
        assert isinstance(supervisor.failures[0][1], ValueError)

    def test_stop_cancels_and_awaits_everything(self):
        async def scenario():
            supervisor = TaskSupervisor()
            cancelled = []

            async def relay(i):
                try:
                    await asyncio.sleep(60)
                except asyncio.CancelledError:
                    cancelled.append(i)
                    raise

            for i in range(5):
                supervisor.spawn(relay(i), name=f"relay-{i}")

            async def service():
                await asyncio.sleep(60)

            supervisor.supervise("svc", service)
            assert supervisor.pending == 6
            await asyncio.sleep(0)  # let every task reach its first await
            await supervisor.stop()
            return cancelled, supervisor

        cancelled, supervisor = run_strict(scenario())
        assert sorted(cancelled) == [0, 1, 2, 3, 4]
        assert supervisor.pending == 0

    def test_stop_is_idempotent(self):
        async def scenario():
            supervisor = TaskSupervisor()
            supervisor.spawn(asyncio.sleep(60), name="sleeper")
            await supervisor.stop()
            await supervisor.stop()
            return supervisor

        assert run_strict(scenario()).pending == 0
