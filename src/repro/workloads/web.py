"""Scripted web browsing (the paper's multi-TCP-stream workload, §4.2).

The paper "used a script (generated prior to the experiments) to ensure
that the traffic pattern remained identical across different
experiments". :class:`WebScript` is that script: a seeded sequence of
page visits, each with a main object plus several embedded objects and
a think time. Objects are fetched HTTP/1.0 style — one TCP connection
per object, server closes when done — with up to two connections in
flight, which yields the "multiple concurrent TCP streams per client"
the paper describes.

Payloads never exist: the client sends a fixed-size request; the server
replies with the scripted object size and closes. Both sides derive
object sizes from the same script, so no application header parsing is
needed (the proxy must work without understanding protocols anyway —
that is the point of its transparency).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.net.addr import Endpoint
from repro.net.node import Node
from repro.net.tcp import TcpConnection, TcpListener

#: HTTP request size (headers only).
REQUEST_BYTES = 350
#: Web server port.
HTTP_PORT = 80
#: Max concurrent object fetches per client (HTTP/1.0 browsers used 2-4).
MAX_CONCURRENT = 2

#: The browsing script's shape: mean think time between pages, lognormal
#: object sizes (median and cap, in KiB), and mean objects per page.
MEAN_THINK_S = 4.0
MEAN_OBJECT_KB = 12.0
MAX_OBJECT_KB = 150.0
MEAN_OBJECTS_PER_PAGE = 5.0


@dataclass(frozen=True, slots=True)
class PageVisit:
    """One page: object sizes in fetch order, then a think time."""

    object_sizes: tuple[int, ...]
    think_s: float

    @property
    def total_bytes(self) -> int:
        return sum(self.object_sizes)


@dataclass(frozen=True, slots=True)
class WebScript:
    """A reproducible browsing session."""

    visits: tuple[PageVisit, ...]

    @property
    def total_bytes(self) -> int:
        return sum(visit.total_bytes for visit in self.visits)

    @classmethod
    def generate(
        cls, rng: np.random.Generator, n_pages: int = 30
    ) -> "WebScript":
        """Draw a script: lognormal object sizes, geometric object counts,
        exponential think times — the classic web traffic shape."""
        if n_pages <= 0:
            raise ConfigurationError("need at least one page")
        visits = []
        for _ in range(n_pages):
            n_objects = 1 + int(rng.geometric(1.0 / MEAN_OBJECTS_PER_PAGE))
            sizes = []
            for _ in range(n_objects):
                size_kb = float(
                    np.exp(rng.normal(np.log(MEAN_OBJECT_KB), 1.0))
                )
                size_kb = min(MAX_OBJECT_KB, max(1.0, size_kb))
                sizes.append(int(size_kb * 1024))
            think = float(rng.exponential(MEAN_THINK_S))
            visits.append(PageVisit(tuple(sizes), think))
        return cls(tuple(visits))


class WebServerApp:
    """Serves scripted objects: read a request, stream the size, close.

    The response size comes from the request packet's metadata — the
    client knows its own script — which stands in for the URL path a
    real server would parse.
    """

    def __init__(self, server: Node) -> None:
        self.server = server
        self.requests_served = 0
        self.bytes_served = 0
        TcpListener(server, HTTP_PORT, self._on_accept)
        self._conn_meta: dict[TcpConnection, int] = {}

    def _on_accept(self, conn: TcpConnection) -> None:
        state = {"request_bytes": 0, "size": None}

        def on_data(nbytes: int, packet) -> None:
            state["request_bytes"] += nbytes
            if state["size"] is None:
                size = packet.meta.get("object_size")
                if size is not None:
                    state["size"] = int(size)
            if (
                state["request_bytes"] >= REQUEST_BYTES
                and state["size"] is not None
            ):
                self.requests_served += 1
                self.bytes_served += state["size"]
                conn.send(state["size"])
                conn.close()

        conn.on_data = on_data


class WebClientApp:
    """Runs a :class:`WebScript` against a web server."""

    def __init__(
        self,
        client: Node,
        server_endpoint: Endpoint,
        script: WebScript,
        start_at: float = 0.0,
        stop_at: Optional[float] = None,
    ) -> None:
        self.client = client
        self.sim = client.sim
        self.server_endpoint = server_endpoint
        self.script = script
        self.start_at = start_at
        self.stop_at = stop_at
        self.pages_loaded = 0
        self.objects_loaded = 0
        self.bytes_received = 0
        self.page_latencies: list[float] = []
        self.object_latencies: list[float] = []
        self.sim.process(self._browse())

    def _fetch_object(self, size: int):
        """Fetch one object on a fresh connection; returns its latency.

        Completion is detected by byte count (the browser knows the
        content length), not by the FIN — the FIN trails the marked
        last data packet and is typically exchanged lazily while the
        WNIC sleeps.
        """
        sim = self.sim
        started = sim.now
        done = sim.event()

        received = {"bytes": 0}

        def on_data(nbytes: int, packet) -> None:
            received["bytes"] += nbytes
            self.bytes_received += nbytes
            if received["bytes"] >= size and not done.triggered:
                done.succeed(sim.now - started)

        def on_close(conn) -> None:
            if not done.triggered:
                done.succeed(sim.now - started)

        conn = TcpConnection.connect(
            self.client,
            self.server_endpoint,
            on_data=on_data,
            on_close=on_close,
        )

        def send_request(_conn) -> None:
            conn.send(REQUEST_BYTES)

        conn.on_established = send_request
        # The object size rides in segment metadata (stand-in for the URL).
        original_tx = conn.on_segment_tx

        def tag_request(packet) -> None:
            packet.meta["object_size"] = size
            if original_tx is not None:
                original_tx(packet)

        conn.on_segment_tx = tag_request
        latency = yield done
        self.objects_loaded += 1
        self.object_latencies.append(latency)
        return latency

    def _browse(self):
        sim = self.sim
        if self.start_at > sim.now:
            yield sim.timeout(self.start_at - sim.now)
        for visit in self.script.visits:
            if self.stop_at is not None and sim.now >= self.stop_at:
                return
            page_started = sim.now
            pending = list(visit.object_sizes)
            # Fetch with limited concurrency.
            while pending:
                batch = pending[:MAX_CONCURRENT]
                pending = pending[MAX_CONCURRENT:]
                fetches = [
                    self.sim.process(self._fetch_object(size))
                    for size in batch
                ]
                yield sim.all_of(fetches)
            self.pages_loaded += 1
            self.page_latencies.append(sim.now - page_started)
            yield sim.timeout(visit.think_s)

    @property
    def mean_object_latency(self) -> float:
        """Average per-object end-to-end latency (Figure 7 right axis)."""
        if not self.object_latencies:
            return 0.0
        return sum(self.object_latencies) / len(self.object_latencies)
