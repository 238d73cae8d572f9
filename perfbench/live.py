"""The live workload: the asyncio proxy on loopback.

``SpeedTestOrigin``, ``AsyncProxy`` and two ``AsyncPowerClient``s share
one event loop. It is a closed loop of two connections (one per
client): each client sends its next request when the previous one has
come back. Requests are 24-32 KB, drawn from the seed; at a 25 ms
burst interval both clients' slots (about 2.6 ms each at the proxy's
drain-rate estimate) fit in one interval, so most requests take about
one interval.

The process sleeps most of the time and runs in short bursts after
each wake-up, and a kernel sample taken between batches sees a
different host than those bursts do. So while a batch runs, two
sampler tasks on the same loop run slices of the kernel, one every
10 ms (after short sleeps, like the proxy's socket wake-ups) and one
every 40 ms (after longer ones, like its interval timer); each batch
is normalised by the mean of their per-call estimates, and their CPU
is not charged to the batch. Over 20-batch blocks on a noisy host,
this held the spread of normalised CPU to a third of the raw one,
closer than either sampler alone. Between batches, with nothing in
flight, the meter's checkpoint runs a garbage collection, charged to
the batch before it. Broadcast gaps that overlap a checkpoint are left
out of the jitter figures.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import hashlib
import statistics
import time
from typing import Optional

from perfbench.common import (
    SETUP_REPEATS,
    Measured,
    import_seconds,
    normalise,
    setup_record,
)
from perfbench.kernel import (
    KERNEL_STEPS,
    Meter,
    kernel_sample,
    reference_kernel,
)
from perfbench.trace import LayerTracer, guards

from repro.errors import ReproError
from repro.obs import SimRecorder
from repro.runtime.client import AsyncPowerClient
from repro.runtime.loadtest import percentile
from repro.runtime.origin import SpeedTestOrigin
from repro.runtime.proxy import CHUNK, AsyncProxy, AsyncProxyConfig

LIVE_IMPORTS = (
    "repro.runtime.proxy", "repro.runtime.client", "repro.runtime.origin",
)
CLIENTS = 2
INTERVAL_S = 0.025
REQUEST_BYTES = (24_000, 32_000)
#: Requests each client sends per batch.
BATCH_PER_CLIENT = 25
#: Batches in one pass: 1000 requests, so p99 has 10 samples beyond it.
PASS_BATCHES = 20
FETCH_TIMEOUT_S = 10.0
#: The in-loop samplers: (period, kernel steps per slice).
SAMPLERS = ((0.01, KERNEL_STEPS // 40), (0.04, KERNEL_STEPS // 10))


class _Stack:
    """One origin, one proxy and the clients, started together."""

    def __init__(self) -> None:
        self.origin = SpeedTestOrigin()
        self.proxy = AsyncProxy(
            AsyncProxyConfig(burst_interval_s=INTERVAL_S), obs=SimRecorder()
        )
        self.clients = [
            AsyncPowerClient(f"bench-{i}") for i in range(CLIENTS)
        ]

    async def start(self) -> None:
        await self.origin.start()
        await self.proxy.start()
        for client in self.clients:
            await client.start()

    async def stop(self) -> None:
        await self.proxy.stop()
        for client in self.clients:
            client.stop()
        await self.origin.stop()


class _Batches:
    """Sends request batches over a started stack and checks replies."""

    def __init__(self, stack: _Stack, seed: int) -> None:
        self.stack = stack
        self.seed = seed
        self.sent = 0
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    async def _client(
        self, client: AsyncPowerClient, sizes: list[int], keep: bool
    ) -> None:
        loop = asyncio.get_running_loop()
        origin = ("127.0.0.1", self.stack.origin.port)
        for size in sizes:
            began = loop.time()
            try:
                payload = await client.fetch(
                    "127.0.0.1", self.stack.proxy.port, origin,
                    request=f"GET {size}\n".encode(), expect_bytes=size,
                    timeout_s=FETCH_TIMEOUT_S,
                )
            except (ReproError, OSError, asyncio.TimeoutError) as exc:
                payload = b""
                self.problems.append(f"{client.client_id}: {exc!r}")
            elapsed = loop.time() - began
            if not keep:
                continue
            self.attempted += 1
            if len(payload) != size or payload.count(0) != size:
                self.failed += 1
                self.problems.append(
                    f"{client.client_id}: {len(payload)} of {size} bytes"
                )
            else:
                self.latencies.append(elapsed)

    def _size(self) -> int:
        """The next request size, a pure function of (seed, request #)."""
        self.sent += 1
        draw = hashlib.sha256(f"{self.seed}:{self.sent}".encode()).digest()
        low, high = REQUEST_BYTES
        return low + int.from_bytes(draw[:4], "big") % (high - low + 1)

    async def batch(self, keep: bool = True) -> None:
        sizes = [
            [self._size() for _ in range(BATCH_PER_CLIENT)]
            for _ in self.stack.clients
        ]
        await asyncio.gather(*(
            self._client(client, client_sizes, keep)
            for client, client_sizes in zip(self.stack.clients, sizes)
        ))


class _LoopSampler:
    """Runs a slice of the reference kernel on the event loop every
    ``period`` seconds, in the same wake-up conditions as the proxy."""

    def __init__(self, period: float, steps: int) -> None:
        self.period = period
        self.steps = steps
        self.cpu_s = 0.0
        self.calls = 0
        self._task: Optional[asyncio.Task] = None

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self.period)
            started = time.process_time()
            reference_kernel(self.steps)
            self.cpu_s += time.process_time() - started
            self.calls += 1

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._run())

    def mark(self) -> tuple[float, int]:
        return self.cpu_s, self.calls

    def since(self, mark: tuple[float, int]) -> tuple[float, float]:
        """(CPU seconds the slices took since ``mark``, seconds per
        whole kernel call they imply)."""
        cpu, calls = mark
        spent = self.cpu_s - cpu
        per_slice = spent / max(self.calls - calls, 1)
        return spent, per_slice * KERNEL_STEPS / self.steps

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            await asyncio.gather(self._task, return_exceptions=True)
            self._task = None


async def _startup_seconds() -> tuple[list[float], list[float]]:
    """Normalised and raw CPU seconds of starting the stack."""
    norm, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = kernel_sample()
        started = time.process_time()
        stack = _Stack()
        await stack.start()
        seconds = time.process_time() - started
        raw.append(seconds)
        norm.append(normalise(seconds, (before + kernel_sample()) / 2.0))
        await stack.stop()
    return norm, raw


def _jitter(
    broadcasts: list[float], windows: list[tuple[float, float]],
    begin: float, end: float,
) -> list[float]:
    """|gap - interval| of broadcast gaps inside the timed phase that no
    checkpoint overlaps."""
    out = []
    for t0, t1 in zip(broadcasts, broadcasts[1:]):
        if t0 < begin or t1 > end:
            continue
        if any(t0 < w1 and w0 < t1 for w0, w1 in windows):
            continue
        out.append(abs((t1 - t0) - INTERVAL_S))
    return out


async def _run(
    seed: int, seconds: float, tracer: Optional[LayerTracer]
) -> Measured:
    start_norm, start_raw = await _startup_seconds()
    import_norm, import_raw = import_seconds(LIVE_IMPORTS)
    setup_s, setup_raw, record = setup_record(
        import_norm, import_raw, start_norm, start_raw
    )

    loop = asyncio.get_running_loop()
    stack = _Stack()
    await stack.start()
    try:
        batches = _Batches(stack, seed)
        await batches.batch(keep=False)  # untimed warm-up
        gc.collect()
        scope, exclude = guards(tracer)
        meter = Meter(exclude, collect=True)
        windows: list[tuple[float, float]] = []
        samplers = [_LoopSampler(*spec) for spec in SAMPLERS]
        for sampler in samplers:
            sampler.start()
        begin = loop.time()
        try:
            with scope:
                while (
                    len(windows) < PASS_BATCHES
                    or loop.time() - begin < seconds
                ):
                    marks = [sampler.mark() for sampler in samplers]
                    await batches.batch()
                    spent, per_call = zip(*(
                        sampler.since(mark)
                        for sampler, mark in zip(samplers, marks)
                    ))
                    window_start = loop.time()
                    meter.checkpoint(
                        "batch",
                        kernel_s=statistics.mean(per_call),
                        uncharged_s=sum(spent),
                    )
                    windows.append((window_start, loop.time()))
        finally:
            for sampler in samplers:
                await sampler.stop()
        end = loop.time()
        proxy = stack.proxy
        peak_queue = max(
            (state.peak_pending for state in proxy._clients.values()),
            default=0,
        )
        broadcasts = list(proxy.broadcast_times)
    finally:
        await stack.stop()

    high = proxy.config.queue_high_bytes
    # run_loadtest's watermark_exceeded rule; keep the two the same.
    if peak_queue > high + CHUNK:
        batches.problems.append(f"watermark exceeded: {peak_queue} > {high}")
        batches.failed += 1
    jitter = _jitter(broadcasts, windows, begin, end)
    latencies = batches.latencies
    units = meter.units
    return Measured(
        setup_s=setup_s, setup_raw_s=setup_raw,
        run_s=statistics.median(u.norm_s for u in units) * PASS_BATCHES,
        run_raw_s=statistics.median(u.cpu_s for u in units) * PASS_BATCHES,
        client_s=CLIENTS * BATCH_PER_CLIENT * PASS_BATCHES * INTERVAL_S,
        attempted=batches.attempted,
        failed=batches.failed,
        passes=len(units) / PASS_BATCHES,
        counters={
            "runtime.proxy.schedules_sent": proxy.schedules_sent,
            "runtime.proxy.peak_buffered_bytes": proxy.peak_buffered_bytes,
            "runtime.proxy.connections_refused": proxy.connections_refused,
        },
        record={
            **record,
            "req_samples": len(latencies),
            "req_p50_ms": percentile(latencies, 0.50) * 1000.0,
            "req_p99_ms": percentile(latencies, 0.99) * 1000.0,
            "jitter_samples": len(jitter),
            "jitter_p50_ms": percentile(jitter, 0.50) * 1000.0,
            "jitter_p99_ms": percentile(jitter, 0.99) * 1000.0,
            "peak_queue_bytes": peak_queue,
            "problems": batches.problems[:20],
            "units": [dataclasses.asdict(u) for u in units],
            "kernel_s": [u.kernel_s for u in units],
        },
    )


def run_live(
    seed: int, seconds: float, tracer: Optional[LayerTracer]
) -> Measured:
    """The live workload, in a fresh event loop."""
    return asyncio.run(_run(seed, seconds, tracer))
