"""Bulk FTP-style downloads (the paper's third traffic type)."""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.net.addr import Endpoint
from repro.net.node import Node
from repro.net.tcp import TcpConnection, TcpListener

#: Control-channel request size.
REQUEST_BYTES = 120
#: FTP data port.
FTP_PORT = 21


class FtpServerApp:
    """Serves one file per connection: read request, stream, close."""

    def __init__(self, server: Node) -> None:
        self.server = server
        self.files_served = 0
        self.bytes_served = 0
        TcpListener(server, FTP_PORT, self._on_accept)

    def _on_accept(self, conn: TcpConnection) -> None:
        state = {"request_bytes": 0, "size": None, "sent": False}

        def on_data(nbytes: int, packet) -> None:
            state["request_bytes"] += nbytes
            if state["size"] is None:
                size = packet.meta.get("file_size")
                if size is not None:
                    state["size"] = int(size)
            if (
                not state["sent"]
                and state["request_bytes"] >= REQUEST_BYTES
                and state["size"] is not None
            ):
                state["sent"] = True
                self.files_served += 1
                self.bytes_served += state["size"]
                conn.send(state["size"])
                conn.close()

        conn.on_data = on_data


class FtpClientApp:
    """Downloads one file of a configured size."""

    def __init__(
        self,
        client: Node,
        server_endpoint: Endpoint,
        file_size: int,
        start_at: float = 0.0,
    ) -> None:
        if file_size <= 0:
            raise ConfigurationError(f"file size must be positive: {file_size!r}")
        self.client = client
        self.sim = client.sim
        self.server_endpoint = server_endpoint
        self.file_size = file_size
        self.start_at = start_at
        self.bytes_received = 0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.sim.process(self._download())

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    @property
    def transfer_time_s(self) -> Optional[float]:
        """Wall time of the transfer, once finished."""
        if self.finished_at is None or self.started_at is None:
            return None
        return self.finished_at - self.started_at

    def _download(self):
        sim = self.sim
        if self.start_at > sim.now:
            yield sim.timeout(self.start_at - sim.now)
        self.started_at = sim.now
        done = sim.event()

        def on_data(nbytes: int, packet) -> None:
            self.bytes_received += nbytes
            # Complete on byte count: the FIN trails the marked last
            # data packet and may only be exchanged lazily.
            if self.bytes_received >= self.file_size and not done.triggered:
                done.succeed(sim.now)

        def on_close(conn) -> None:
            if not done.triggered:
                done.succeed(sim.now)

        conn = TcpConnection.connect(
            self.client,
            self.server_endpoint,
            on_data=on_data,
            on_close=on_close,
        )
        conn.on_established = lambda c: conn.send(REQUEST_BYTES)
        original_tx = conn.on_segment_tx

        def tag_request(packet) -> None:
            packet.meta["file_size"] = self.file_size
            if original_tx is not None:
                original_tx(packet)

        conn.on_segment_tx = tag_request
        self.finished_at = yield done
