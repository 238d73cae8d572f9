"""Chaos suite: the live runtime under injected faults.

The acceptance contract: under origin kill, client vanish, and UDP
blackout, surviving clients keep scheduling and fetching, dead clients
are evicted within the liveness window, and there are zero unhandled
exceptions, leaked tasks, or leaked sockets (run_strict asserts the
latter three on every scenario).
"""

import asyncio

import pytest

from repro.errors import ConfigurationError, ProxyProtocolError
from repro.faults.plan import ChurnEvent, FaultPlan, Window
from repro.runtime.chaos import ChaosShim
from repro.runtime.client import AsyncPowerClient
from repro.runtime.origin import SpeedTestOrigin
from repro.runtime.proxy import AsyncProxy, AsyncProxyConfig

from tests.runtime.conftest import run_strict


pytestmark = pytest.mark.usefixtures("fast_dials", "fast_reaper")


def _chaos_config() -> AsyncProxyConfig:
    return AsyncProxyConfig(
        burst_interval_s=0.05, silence_timeout_s=0.3, evict_timeout_s=0.8,
    )


async def _fetch(client, proxy, origin_port, nbytes=30_000):
    return await client.fetch(
        "127.0.0.1", proxy.port, ("127.0.0.1", origin_port),
        request=f"GET {nbytes}\n".encode(), expect_bytes=nbytes,
        timeout_s=10.0,
    )


class TestClientVanish:
    @pytest.mark.timeout(60)
    def test_survivors_keep_scheduling_and_dead_client_is_evicted(self):
        async def scenario():
            origin = SpeedTestOrigin()
            origin_port = await origin.start()
            proxy = AsyncProxy(_chaos_config())
            await proxy.start()
            clients = [AsyncPowerClient(f"c{i}") for i in range(3)]
            for client in clients:
                await client.start()
            try:
                # Everyone registers and fetches once.
                await asyncio.gather(*(
                    _fetch(c, proxy, origin_port) for c in clients
                ))
                assert set(proxy._clients) == {"c0", "c1", "c2"}
                # c0 vanishes: heartbeats stop cold.
                clients[0].stop()
                heard_before = clients[1].schedules_heard
                # Wait past the eviction window.
                await asyncio.sleep(1.2)
                evicted = "c0" not in proxy._clients
                # Survivors still hear schedules and still fetch.
                survivor_payload = await _fetch(
                    clients[1], proxy, origin_port
                )
                heard_after = clients[1].schedules_heard
                return (
                    proxy, evicted, survivor_payload,
                    heard_before, heard_after,
                )
            finally:
                await proxy.stop()
                for client in clients:
                    client.stop()
                await origin.stop()

        (proxy, evicted, survivor_payload,
         heard_before, heard_after) = run_strict(scenario(), timeout_s=30.0)
        assert evicted
        assert proxy.evictions >= 1
        assert proxy.slots_reclaimed >= 1
        assert heard_after > heard_before
        assert len(survivor_payload) == 30_000
        assert proxy.scheduler_restarts == 0
        assert proxy._supervisor.failures == []


class TestOriginKill:
    @pytest.mark.timeout(60)
    def test_kill_refuses_new_fetches_and_restart_recovers(self):
        async def scenario():
            origin = SpeedTestOrigin()
            origin_port = await origin.start()
            proxy = AsyncProxy(_chaos_config())
            await proxy.start()
            client = AsyncPowerClient("c0")
            await client.start()
            try:
                before = await _fetch(client, proxy, origin_port)
                origin.kill()
                with pytest.raises(ProxyProtocolError,
                                   match="origin-unreachable"):
                    await _fetch(client, proxy, origin_port)
                await origin.restart()
                after = await _fetch(client, proxy, origin_port)
            finally:
                await proxy.stop()
                client.stop()
                await origin.stop()
            return before, after, proxy

        before, after, proxy = run_strict(scenario(), timeout_s=30.0)
        assert len(before) == 30_000
        assert len(after) == 30_000
        assert proxy.scheduler_restarts == 0
        assert proxy._supervisor.failures == []

    @pytest.mark.timeout(60)
    def test_kill_mid_transfer_does_not_crash_the_proxy(self):
        async def scenario():
            origin = SpeedTestOrigin(pace_s=0.02)  # slow stream
            origin_port = await origin.start()
            proxy = AsyncProxy(_chaos_config())
            await proxy.start()
            client = AsyncPowerClient("c0")
            await client.start()
            try:
                fetch = asyncio.create_task(
                    _fetch(client, proxy, origin_port, nbytes=500_000)
                )
                await asyncio.sleep(0.2)
                origin.kill()
                # The fetch ends short (origin aborted); the proxy
                # delivers what it buffered and survives.
                payload = await fetch
                assert len(payload) < 500_000
                await origin.restart()
                recovered = await _fetch(client, proxy, origin_port)
            finally:
                await proxy.stop()
                client.stop()
                await origin.stop()
            return recovered, proxy

        recovered, proxy = run_strict(scenario(), timeout_s=30.0)
        assert len(recovered) == 30_000
        assert proxy.scheduler_restarts == 0
        assert proxy._supervisor.failures == []


class TestBlackout:
    @pytest.mark.timeout(60)
    def test_schedule_blackout_degrades_but_data_flows(self):
        async def scenario():
            origin = SpeedTestOrigin()
            origin_port = await origin.start()
            proxy = AsyncProxy(_chaos_config())
            await proxy.start()
            shim = ChaosShim(
                FaultPlan(schedule_blackouts=(Window(0.0, 120.0),))
            )
            shim.install(proxy)
            client = AsyncPowerClient("c0")
            await client.start()
            try:
                payload = await _fetch(client, proxy, origin_port)
            finally:
                shim.uninstall()
                await proxy.stop()
                client.stop()
                await origin.stop()
            return payload, client, shim, proxy

        payload, client, shim, proxy = run_strict(scenario(), timeout_s=30.0)
        assert len(payload) == 30_000
        assert client.schedules_heard == 0
        assert shim.dropped_blackout > 0
        assert proxy._supervisor.failures == []


class TestChaosShim:
    def test_loss_decisions_replay_from_plan_and_seed(self):
        async def scenario():
            plan = FaultPlan(loss_rate=0.5)

            def decisions(seed):
                shim = ChaosShim(plan, seed=seed)
                shim.install(AsyncProxy())
                out = [
                    shim._filter(b"x", ("127.0.0.1", 1), "mark")
                    for _ in range(200)
                ]
                shim.uninstall()
                return out

            a, b = decisions(7), decisions(7)
            c = decisions(8)
            return a, b, c

        a, b, c = run_strict(scenario())
        assert a == b  # same (plan, seed) -> same decision stream
        assert a != c  # a different seed actually changes something
        assert 40 < a.count(False) < 160  # loss rate is roughly honored

    def test_actions_are_time_ordered(self):
        async def scenario():
            plan = FaultPlan(
                outages=(Window(2.0, 3.0),),
                churn=(ChurnEvent(0, 0.5, 2.5), ChurnEvent(1, 1.0, None)),
            )
            shim = ChaosShim(plan)
            clients = [AsyncPowerClient("a"), AsyncPowerClient("b")]
            actions = shim.actions(SpeedTestOrigin(), clients)
            return actions

        actions = run_strict(scenario())
        times = [at for at, _action, _i in actions]
        assert times == sorted(times)
        assert [a for _t, a, _i in actions] == [
            "client-vanish", "client-vanish", "origin-kill",
            "client-rejoin", "origin-restart",
        ]

    def test_churn_index_out_of_range_rejected(self):
        async def scenario():
            shim = ChaosShim(FaultPlan(churn=(ChurnEvent(3, 1.0, None),)))
            with pytest.raises(ConfigurationError, match="out of range"):
                shim.actions(None, [AsyncPowerClient("only")])

        run_strict(scenario())

    def test_double_install_rejected(self):
        async def scenario():
            shim = ChaosShim(FaultPlan(loss_rate=0.1))
            shim.install(AsyncProxy())
            with pytest.raises(ConfigurationError, match="already installed"):
                shim.install(AsyncProxy())
            shim.uninstall()

        run_strict(scenario())
