"""Integration tests for the live asyncio proxy (real sockets).

Wall-clock timing on shared machines is imprecise (that is precisely
why the evaluation runs on the DES); these tests assert structure and
data integrity, not exact burst timing. Every async scenario runs
through :func:`tests.runtime.conftest.run_strict`, which fails on
unhandled loop exceptions, leaked tasks, and unclosed transports.
"""

import asyncio
import socket

import pytest

from repro.cli import main
from repro.core.schedule import BurstSlot, Schedule
from repro.errors import ConfigurationError, OverloadError, ProxyProtocolError
from repro.obs import SimRecorder
from repro.runtime.client import AsyncPowerClient
from repro.runtime.demo import run_demo
from repro.runtime import proxy as proxy_module
from repro.runtime.origin import SpeedTestOrigin
from repro.runtime.proxy import (
    CHUNK,
    KIND_MARK,
    KIND_SCHEDULE,
    AsyncProxy,
    AsyncProxyConfig,
)
from repro.runtime.wire import decode_control

from tests.runtime.conftest import run_strict


def _dead_port() -> int:
    """A loopback port with nothing listening on it."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


pytestmark = pytest.mark.usefixtures("fast_dials")


def _fast_config(**overrides) -> AsyncProxyConfig:
    defaults = dict(burst_interval_s=0.05)
    defaults.update(overrides)
    return AsyncProxyConfig(**defaults)


class TestConfigValidation:
    def test_low_watermark_must_not_exceed_high(self):
        with pytest.raises(ConfigurationError):
            AsyncProxyConfig(queue_high_bytes=1024, queue_low_bytes=2048)

    def test_evict_window_must_cover_silence_window(self):
        with pytest.raises(ConfigurationError):
            AsyncProxyConfig(silence_timeout_s=5.0, evict_timeout_s=1.0)

    def test_silence_window_must_be_positive(self, capsys):
        """The planner judges silence against it: a zero window is a
        usage error, not a traceback."""
        with pytest.raises(SystemExit) as refused:
            main(["loadtest", "--clients", "1", "--silence-timeout", "0"])
        assert refused.value.code == 2
        assert "silence_timeout_s must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("interval", ["variable", "1ms"])
    def test_interval_the_planner_cannot_serve_is_refused(
        self, interval, capsys
    ):
        """No variable interval, and none too short for one slot: the
        loadtest exits with a usage error before any socket opens."""
        with pytest.raises(SystemExit) as refused:
            main(["loadtest", "--clients", "1", "--interval", interval])
        assert refused.value.code == 2
        assert "burst interval" in capsys.readouterr().err


class TestLiveProxy:
    @pytest.mark.timeout(60)
    def test_single_client_download_integrity(self):
        async def scenario():
            origin = SpeedTestOrigin(pace_s=0.005)
            origin_port = await origin.start()
            proxy = AsyncProxy(_fast_config())
            await proxy.start()
            client = AsyncPowerClient("c0")
            await client.start()
            try:
                payload = await client.fetch(
                    "127.0.0.1", proxy.port, ("127.0.0.1", origin_port),
                    request=b"GET 100000\n", expect_bytes=100_000,
                )
            finally:
                await proxy.stop()
                client.stop()
                await origin.stop()
            return payload, client, proxy

        payload, client, proxy = run_strict(scenario())
        assert len(payload) == 100_000
        assert client.schedules_heard > 0
        assert client.marks_heard > 0
        assert proxy.connections_split == 1

    @pytest.mark.timeout(60)
    def test_demo_multiple_clients(self):
        results = run_strict(
            run_demo(n_clients=2, file_size=120_000, burst_interval_s=0.05),
            timeout_s=60.0,
        )
        assert len(results) == 2
        for result in results:
            assert result.bytes_received == 120_000
            assert result.schedules_heard > 0
            assert result.marks_heard > 0
            # The virtual card dozed at least part of the time.
            assert result.awake_fraction < 1.0

    def test_proxy_rejects_malformed_header(self):
        async def scenario():
            proxy = AsyncProxy(_fast_config())
            await proxy.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", proxy.port
                )
                writer.write(b"BOGUS header line\n")
                await writer.drain()
                data = await asyncio.wait_for(reader.read(100), timeout=5.0)
                writer.close()
                await writer.wait_closed()
            finally:
                await proxy.stop()
            return data, proxy

        data, proxy = run_strict(scenario())
        # The explicit status line, then the connection closes.
        assert data == b"ERR bad-connect\n"
        assert proxy.connections_refused == 1
        assert proxy.connections_split == 0

    def test_unreachable_origin_leaves_no_ghost_registration(self):
        """A failed origin dial must refuse the connect *without*
        registering the client (the ghost-client fix): nothing may
        linger in the schedule for a client that never got a byte."""

        async def scenario():
            proxy = AsyncProxy(_fast_config())
            await proxy.start()
            client = AsyncPowerClient("ghost")
            await client.start()
            try:
                with pytest.raises(ProxyProtocolError, match="origin-unreachable"):
                    await client.fetch(
                        "127.0.0.1", proxy.port, ("127.0.0.1", _dead_port()),
                        request=b"GET 10\n", expect_bytes=10,
                    )
                registered = dict(proxy._clients)
            finally:
                await proxy.stop()
                client.stop()
            return registered, proxy

        registered, proxy = run_strict(scenario())
        assert registered == {}
        assert proxy.connections_split == 0
        assert proxy.connections_refused == 1

    def test_admission_limit_overload(self, monkeypatch):
        monkeypatch.setattr(proxy_module, "MAX_CLIENTS", 1)

        async def scenario():
            origin = SpeedTestOrigin()
            origin_port = await origin.start()
            proxy = AsyncProxy(_fast_config())
            await proxy.start()
            admitted = AsyncPowerClient("admitted")
            shed = AsyncPowerClient("shed")
            await admitted.start()
            await shed.start()
            try:
                payload = await admitted.fetch(
                    "127.0.0.1", proxy.port, ("127.0.0.1", origin_port),
                    request=b"GET 20000\n", expect_bytes=20_000,
                )
                with pytest.raises(OverloadError):
                    await shed.fetch(
                        "127.0.0.1", proxy.port, ("127.0.0.1", origin_port),
                        request=b"GET 10\n", expect_bytes=10,
                    )
            finally:
                await proxy.stop()
                admitted.stop()
                shed.stop()
                await origin.stop()
            return payload, proxy

        payload, proxy = run_strict(scenario())
        assert len(payload) == 20_000
        assert proxy.connections_refused == 1

    def test_backpressure_bounds_queue_at_watermark(self):
        """The origin read pauses above the high watermark, so the
        per-client queue can overshoot it by at most one read chunk."""

        async def scenario():
            origin = SpeedTestOrigin()
            origin_port = await origin.start()
            proxy = AsyncProxy(_fast_config(
                queue_high_bytes=128 * 1024,
                queue_low_bytes=32 * 1024,
            ))
            await proxy.start()
            client = AsyncPowerClient("bp")
            await client.start()
            try:
                payload = await client.fetch(
                    "127.0.0.1", proxy.port, ("127.0.0.1", origin_port),
                    request=b"GET 1000000\n", expect_bytes=1_000_000,
                )
            finally:
                await proxy.stop()
                client.stop()
                await origin.stop()
            return payload, proxy

        payload, proxy = run_strict(scenario(), timeout_s=60.0)
        assert len(payload) == 1_000_000
        assert 0 < proxy.peak_buffered_bytes <= 128 * 1024 + CHUNK

    def test_scheduler_survives_vanished_client_slot(self):
        """The crash-window fix: a schedule slot whose client vanished
        between building and bursting is skipped — never a KeyError
        that would restart the scheduler."""

        async def scenario():
            recorder = SimRecorder()
            proxy = AsyncProxy(_fast_config(), obs=recorder)
            await proxy.start()

            def haunted_schedule(srp):
                return Schedule(
                    seq=0, srp=srp,
                    next_srp=srp + proxy.config.burst_interval_s,
                    slots=(BurstSlot("never-registered", srp + 0.001, 0.001, 64),),
                )

            proxy._build_schedule = haunted_schedule
            try:
                await asyncio.sleep(0.3)  # several scheduler iterations
            finally:
                await proxy.stop()
            return proxy, recorder

        proxy, recorder = run_strict(scenario())
        assert proxy.scheduler_restarts == 0
        assert proxy._supervisor.failures == []
        snapshot = recorder.metrics.snapshot()
        vanished = [
            c["value"] for c in snapshot["counters"]
            if c["name"] == "drops" and c["labels"].get("reason") == "vanished"
        ]
        assert vanished and vanished[0] > 0

    def test_schedule_loss_degrades_without_stalling_data(self):
        """With every schedule datagram dropped the client never hears
        one — but bursts still flow: data degrades to plain proxying,
        mirroring the simulator's lost-schedule scenario."""

        async def scenario():
            origin = SpeedTestOrigin()
            origin_port = await origin.start()
            proxy = AsyncProxy(_fast_config())
            await proxy.start()
            proxy.control_filter = (
                lambda payload, addr, kind: kind != KIND_SCHEDULE
            )
            client = AsyncPowerClient("deaf")
            await client.start()
            try:
                payload = await client.fetch(
                    "127.0.0.1", proxy.port, ("127.0.0.1", origin_port),
                    request=b"GET 60000\n", expect_bytes=60_000,
                )
            finally:
                await proxy.stop()
                client.stop()
                await origin.stop()
            return payload, client

        payload, client = run_strict(scenario())
        assert len(payload) == 60_000
        assert client.schedules_heard == 0
        assert client.marks_heard > 0

    def test_mark_loss_degrades_without_stalling_data(self):
        async def scenario():
            origin = SpeedTestOrigin()
            origin_port = await origin.start()
            proxy = AsyncProxy(_fast_config())
            await proxy.start()
            proxy.control_filter = (
                lambda payload, addr, kind: kind != KIND_MARK
            )
            client = AsyncPowerClient("markless")
            await client.start()
            try:
                payload = await client.fetch(
                    "127.0.0.1", proxy.port, ("127.0.0.1", origin_port),
                    request=b"GET 60000\n", expect_bytes=60_000,
                )
            finally:
                await proxy.stop()
                client.stop()
                await origin.stop()
            return payload, client

        payload, client = run_strict(scenario())
        assert len(payload) == 60_000
        assert client.marks_heard == 0
        assert client.schedules_heard > 0

    def test_each_mark_carries_its_schedules_seq(self):
        """A burst's mark names the schedule whose slot it ends."""

        async def scenario():
            origin = SpeedTestOrigin()
            origin_port = await origin.start()
            proxy = AsyncProxy(_fast_config())
            await proxy.start()
            sent = []

            def capture(payload, addr, kind):
                sent.append(decode_control(payload))
                return True

            proxy.control_filter = capture
            clients = [AsyncPowerClient(f"seq-{i}") for i in range(2)]
            for client in clients:
                await client.start()
            try:
                await asyncio.gather(*(
                    client.fetch(
                        "127.0.0.1", proxy.port, ("127.0.0.1", origin_port),
                        request=b"GET 300000\n", expect_bytes=300_000,
                    )
                    for client in clients
                ))
            finally:
                await proxy.stop()
                for client in clients:
                    client.stop()
                await origin.stop()
            return sent

        sent = run_strict(scenario())
        marks = 0
        current = None
        for datagram in sent:
            if datagram["type"] == "schedule":
                current = datagram["seq"]
            else:
                assert datagram["seq"] == current, datagram
                marks += 1
        assert marks > 0


class TestTeardown:
    def test_stop_leaves_no_tasks_or_sockets(self):
        """stop() cancels and *awaits* every owned task and closes every
        writer — run_strict would fail on any orphan."""

        async def scenario():
            origin = SpeedTestOrigin()
            origin_port = await origin.start()
            proxy = AsyncProxy(_fast_config(burst_interval_s=5.0))
            await proxy.start()
            client = AsyncPowerClient("td")
            await client.start()
            # Park a transfer mid-flight: with a 5s burst interval the
            # downstream bytes sit buffered when stop() fires.
            fetch = asyncio.create_task(client.fetch(
                "127.0.0.1", proxy.port, ("127.0.0.1", origin_port),
                request=b"GET 500000\n", expect_bytes=500_000,
                timeout_s=2.0,
            ))
            await asyncio.sleep(0.3)
            assert proxy._connections, "transfer should be in flight"
            await proxy.stop()
            fetch.cancel()
            try:
                await fetch
            except (asyncio.CancelledError, Exception):
                pass
            client.stop()
            await origin.stop()
            return proxy

        proxy = run_strict(scenario())
        assert proxy._supervisor.pending == 0
        assert proxy._connections == set()
        assert proxy._clients == {}
        assert proxy._handler_tasks == set()

    def test_stop_mid_handshake_closes_accepted_socket(self):
        async def scenario():
            proxy = AsyncProxy(_fast_config())
            await proxy.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", proxy.port
            )
            await asyncio.sleep(0.05)  # handler parked in readline()
            await proxy.stop()
            # The proxy side closed; our read completes with EOF.
            data = await asyncio.wait_for(reader.read(64), timeout=5.0)
            writer.close()
            await writer.wait_closed()
            return data, proxy

        data, proxy = run_strict(scenario())
        assert data == b""
        assert proxy._handler_tasks == set()

    def test_stop_is_idempotent(self):
        async def scenario():
            proxy = AsyncProxy(_fast_config())
            await proxy.start()
            await proxy.stop()
            await proxy.stop()
            return proxy

        proxy = run_strict(scenario())
        assert proxy._supervisor.pending == 0
