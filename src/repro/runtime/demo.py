"""Self-contained demo servers and a runnable end-to-end scenario.

:func:`run_demo` spins up, inside one event loop: an origin byte server,
the scheduling proxy, and N power-aware clients that each download a
file through the proxy. It returns per-client statistics including each
client's estimated savings, from its WNIC log by the simulator's energy
model — the live analog of the simulator's experiments (with wall-clock
jitter instead of modelled jitter).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.energy.model import integrate_intervals, naive_breakdown
from repro.runtime.client import AsyncPowerClient
from repro.runtime.origin import SpeedTestOrigin
from repro.runtime.proxy import AsyncProxy, AsyncProxyConfig
from repro.wnic.power import WAVELAN_2_4GHZ
from repro.wnic.states import Wnic


def estimated_savings_pct(wnic: Wnic, end: float) -> float:
    """Energy saved by ``wnic``'s log up to ``end`` against an
    always-awake card, by the simulator's energy model of the WaveLAN
    card. The live client sees no frame airtime, so all awake time
    counts as idle."""
    if end <= 0:
        return 0.0
    spent = integrate_intervals(
        wnic.awake_intervals(end), [], [], end, wnic.wake_count,
        WAVELAN_2_4GHZ,
    )
    naive = naive_breakdown([], [], end, WAVELAN_2_4GHZ)
    return 100.0 * (1.0 - spent.energy_j / naive.energy_j)


@dataclass
class DemoClientResult:
    """What one demo client measured."""

    client_id: str
    bytes_received: int
    schedules_heard: int
    marks_heard: int
    awake_fraction: float
    estimated_savings_pct: float


async def run_demo(
    n_clients: int = 2,
    file_size: int = 200_000,
    burst_interval_s: float = 0.1,
) -> list[DemoClientResult]:
    """Run the live proxy demo; returns per-client results."""
    origin = SpeedTestOrigin(pace_s=0.005)
    origin_port = await origin.start()
    proxy = AsyncProxy(AsyncProxyConfig(burst_interval_s=burst_interval_s))
    await proxy.start()
    clients = [AsyncPowerClient(f"client-{i}") for i in range(n_clients)]
    for client in clients:
        await client.start()

    async def fetch(client: AsyncPowerClient) -> bytes:
        return await client.fetch(
            "127.0.0.1", proxy.port,
            ("127.0.0.1", origin_port),
            request=f"GET {file_size}\n".encode(),
            expect_bytes=file_size,
            timeout_s=30.0,
        )

    try:
        payloads = await asyncio.wait_for(
            asyncio.gather(*(fetch(c) for c in clients)),
            timeout=62.0,
        )
    finally:
        await proxy.stop()
        await origin.stop()

    results = []
    for client, payload in zip(clients, payloads):
        elapsed = client.clock.now
        awake = client.wnic.awake_time(elapsed)
        results.append(
            DemoClientResult(
                client_id=client.client_id,
                bytes_received=len(payload),
                schedules_heard=client.schedules_heard,
                marks_heard=client.marks_heard,
                awake_fraction=awake / elapsed if elapsed > 0 else 1.0,
                estimated_savings_pct=estimated_savings_pct(
                    client.wnic, elapsed
                ),
            )
        )
        client.stop()
    return results
