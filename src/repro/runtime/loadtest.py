"""Proxy load-test harness: concurrency, latency, jitter, bounded queues.

Modeled on proxy benchmarking practice (speed-test origin + N
concurrent proxied downloads), with the paper's scheduling metrics
layered on: besides req/s and p50/p99 request latency the harness
reports *schedule-broadcast jitter* (how steadily the proxy hits its
burst interval under load) and the peak per-client queue depth, which
the backpressure watermarks must keep bounded.

An optional :class:`~repro.faults.plan.FaultPlan` runs the whole test
under chaos (control-datagram loss, schedule blackouts, origin kill
windows, client vanish/rejoin) through
:class:`~repro.runtime.chaos.ChaosShim`.

Everything runs on loopback inside one event loop::

    report = asyncio.run(run_loadtest(LoadTestConfig(clients=50)))
    assert not report.watermark_exceeded

or from the CLI: ``python -m repro loadtest --clients 50 --json``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import OverloadError, ProxyProtocolError, ReproError
from repro.faults.plan import FaultPlan
from repro.obs import Recorder, SimRecorder
from repro.runtime.chaos import ChaosShim
from repro.runtime.client import AsyncPowerClient
from repro.runtime.origin import SpeedTestOrigin
from repro.runtime.proxy import CHUNK, AsyncProxy, AsyncProxyConfig


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by nearest-rank."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


@dataclass
class LoadTestConfig:
    """One load-test scenario."""

    clients: int = 8
    requests_per_client: int = 4
    bytes_per_request: int = 64_000
    #: Origin pacing; 0 = blast at loopback speed.
    origin_pace_s: float = 0.0
    #: Per-request client timeout.
    timeout_s: float = 30.0
    #: Optional chaos plan (wall-clock semantics; see repro.runtime.chaos).
    plan: Optional[FaultPlan] = None
    seed: int = 0
    #: The proxy's settings (burst interval, watermarks, liveness windows).
    proxy: AsyncProxyConfig = field(
        default_factory=lambda: AsyncProxyConfig(burst_interval_s=0.05)
    )


@dataclass
class LoadTestReport:
    """What one load test measured."""

    clients: int
    requests_total: int
    requests_ok: int
    requests_failed: int
    bytes_received: int
    duration_s: float
    req_per_s: float
    latency_p50_s: float
    latency_p99_s: float
    latency_max_s: float
    broadcast_jitter_p50_s: float
    broadcast_jitter_p99_s: float
    broadcast_jitter_max_s: float
    #: Highest per-client queue depth seen, and the configured bound.
    peak_queue_bytes: int
    queue_high_bytes: int
    #: True if any queue overshot high watermark + one read chunk.
    watermark_exceeded: bool
    peak_buffered_bytes: int
    schedules_sent: int
    scheduler_restarts: int
    connections_refused: int
    evictions: int
    slots_reclaimed: int
    chaos_dropped: int
    #: Canonical obs metrics snapshot (same instrument names as the sim).
    metrics: dict

    def summary_rows(self) -> list[dict]:
        """Flat rows for the CLI table (metrics snapshot omitted)."""
        return [{
            "clients": self.clients,
            "requests": self.requests_total,
            "ok": self.requests_ok,
            "failed": self.requests_failed,
            "req_per_s": self.req_per_s,
            "p50_ms": self.latency_p50_s * 1000.0,
            "p99_ms": self.latency_p99_s * 1000.0,
            "jitter_p99_ms": self.broadcast_jitter_p99_s * 1000.0,
            "peak_queue_kib": self.peak_queue_bytes / 1024.0,
            "refused": self.connections_refused,
            "reclaimed": self.slots_reclaimed,
            "evicted": self.evictions,
            "restarts": self.scheduler_restarts,
        }]


async def _client_worker(
    client: AsyncPowerClient,
    config: LoadTestConfig,
    proxy_port: int,
    origin_port: int,
    latencies: list[float],
    outcomes: dict,
) -> None:
    loop = asyncio.get_running_loop()
    request = f"GET {config.bytes_per_request}\n".encode()
    for _ in range(config.requests_per_client):
        if client._transport is None:  # vanished under chaos
            break
        begin = loop.time()
        try:
            payload = await client.fetch(
                "127.0.0.1", proxy_port, ("127.0.0.1", origin_port),
                request=request,
                expect_bytes=config.bytes_per_request,
                timeout_s=config.timeout_s,
            )
        except OverloadError:
            outcomes["overloaded"] += 1
            continue
        except (ProxyProtocolError, ReproError, ConnectionError, OSError,
                asyncio.TimeoutError):
            outcomes["failed"] += 1
            continue
        if len(payload) == config.bytes_per_request:
            latencies.append(loop.time() - begin)
            outcomes["ok"] += 1
            outcomes["bytes"] += len(payload)
        else:
            outcomes["failed"] += 1


def _broadcast_jitter(times: list[float], interval_s: float) -> list[float]:
    """|actual gap − nominal interval| for consecutive broadcasts."""
    return [
        abs((t1 - t0) - interval_s)
        for t0, t1 in zip(times, times[1:])
    ]


async def run_loadtest(
    config: Optional[LoadTestConfig] = None,
    obs: Optional[Recorder] = None,
) -> LoadTestReport:
    """Run one load test; returns the measured report."""
    config = config or LoadTestConfig()
    recorder = obs if obs is not None else SimRecorder()
    proxy_config = config.proxy

    origin = SpeedTestOrigin(pace_s=config.origin_pace_s)
    origin_port = await origin.start()
    proxy = AsyncProxy(proxy_config, obs=recorder)
    await proxy.start()
    clients = [
        AsyncPowerClient(f"lt-{i}", obs=recorder)
        for i in range(config.clients)
    ]
    for client in clients:
        await client.start()

    shim: Optional[ChaosShim] = None
    chaos_task: Optional[asyncio.Task] = None
    if config.plan is not None:
        shim = ChaosShim(config.plan, seed=config.seed)
        shim.install(proxy)
        chaos_task = asyncio.create_task(
            shim.drive(origin=origin, clients=clients)
        )

    loop = asyncio.get_running_loop()
    latencies: list[float] = []
    outcomes = {"ok": 0, "failed": 0, "overloaded": 0, "bytes": 0}
    begin = loop.time()
    try:
        await asyncio.gather(*(
            _client_worker(
                client, config, proxy.port, origin_port, latencies, outcomes,
            )
            for client in clients
        ))
        duration = max(loop.time() - begin, 1e-9)
        # Sample queue peaks *before* teardown clears client state.
        peak_queue = max(
            (s.peak_pending for s in proxy._clients.values()), default=0
        )
        jitter = _broadcast_jitter(
            list(proxy.broadcast_times), proxy_config.burst_interval_s
        )
    finally:
        if chaos_task is not None:
            chaos_task.cancel()
            try:
                await chaos_task
            except asyncio.CancelledError:  # repro: noqa[ASY005] -- we cancelled chaos_task one line up; absorbing the echo is the reap
                pass  # remaining chaos actions are moot after the run
        if shim is not None:
            shim.uninstall()
        await proxy.stop()
        for client in clients:
            client.stop()
        await origin.stop()

    total = outcomes["ok"] + outcomes["failed"] + outcomes["overloaded"]
    metrics = (
        recorder.metrics.snapshot() if recorder.metrics is not None else {}
    )
    return LoadTestReport(
        clients=config.clients,
        requests_total=total,
        requests_ok=outcomes["ok"],
        requests_failed=outcomes["failed"] + outcomes["overloaded"],
        bytes_received=outcomes["bytes"],
        duration_s=duration,
        req_per_s=outcomes["ok"] / duration,
        latency_p50_s=percentile(latencies, 0.50),
        latency_p99_s=percentile(latencies, 0.99),
        latency_max_s=max(latencies, default=0.0),
        broadcast_jitter_p50_s=percentile(jitter, 0.50),
        broadcast_jitter_p99_s=percentile(jitter, 0.99),
        broadcast_jitter_max_s=max(jitter, default=0.0),
        peak_queue_bytes=peak_queue,
        queue_high_bytes=proxy_config.queue_high_bytes,
        watermark_exceeded=(
            peak_queue > proxy_config.queue_high_bytes + CHUNK
        ),
        peak_buffered_bytes=proxy.peak_buffered_bytes,
        schedules_sent=proxy.schedules_sent,
        scheduler_restarts=proxy.scheduler_restarts,
        connections_refused=proxy.connections_refused,
        evictions=proxy.evictions,
        slots_reclaimed=proxy.slots_reclaimed,
        chaos_dropped=shim.dropped_total if shim is not None else 0,
        metrics=metrics,
    )
