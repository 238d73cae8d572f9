"""A local speed-test origin server for demos, load tests, and chaos.

The protocol is one request line, ``GET <nbytes>\\n``, answered with
exactly that many zero bytes. Pacing is configurable: ``pace_s > 0``
streams in small chunks with sleeps (a crude CBR stream, the demo
default), ``pace_s = 0`` blasts at loopback speed (the load-test
default, so the proxy's buffering — not the origin — is the bottleneck
under test).

For chaos experiments the server is killable mid-flight:
:meth:`SpeedTestOrigin.kill` aborts every live connection and closes
the listener, and :meth:`SpeedTestOrigin.restart` rebinds on the same
port — the live analog of the fault plan's AP outage windows.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Optional

from repro.errors import ConfigurationError

log = logging.getLogger("repro.runtime")

#: A request header must arrive within this window, and a closing
#: socket must finish its handshake within it.
IDLE_TIMEOUT_S = 30.0
CLOSE_TIMEOUT_S = 1.0
#: Bytes per write (and per paced step).
CHUNK_BYTES = 8192


class SpeedTestOrigin:
    """The killable origin byte server."""

    def __init__(self, host: str = "127.0.0.1", pace_s: float = 0.0) -> None:
        self.host = host
        self.pace_s = pace_s
        self.port: Optional[int] = None
        self.requests_served = 0
        self.bytes_served = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._tasks: set[asyncio.Task] = set()

    @property
    def alive(self) -> bool:
        """True while the listener is accepting connections."""
        return self._server is not None and self._server.is_serving()

    async def start(self) -> int:
        """Bind the listener; returns the bound port."""
        if self._server is not None:
            raise ConfigurationError("origin already started")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port or 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        self._writers.add(writer)
        try:
            header = await asyncio.wait_for(
                reader.readline(), timeout=IDLE_TIMEOUT_S
            )
            parts = header.decode(errors="replace").split()
            if len(parts) != 2 or parts[0] != "GET":
                return
            remaining = int(parts[1])
            self.requests_served += 1
            while remaining > 0:
                n = min(CHUNK_BYTES, remaining)
                writer.write(b"\0" * n)
                # Unbounded on purpose: the proxy's watermark pause must
                # propagate here as TCP backpressure — parking this
                # coroutine until the proxy resumes reading IS the
                # flow-control design, and kill() aborts the transport,
                # which wakes the drain with ConnectionResetError.
                await writer.drain()  # repro: noqa[ASY003] -- backpressure parking is the design; kill() unwedges it via transport.abort()
                remaining -= n
                self.bytes_served += n
                if self.pace_s > 0:
                    await asyncio.sleep(self.pace_s)
        except (ConnectionError, ValueError, asyncio.TimeoutError):
            pass  # client went away, sent garbage, or never spoke
        except asyncio.CancelledError:  # repro: noqa[ASY005] -- kill() cancels handlers then stop() awaits them; asyncio's streams done-callback calls .exception() on the task, so ending cancelled would spray the loop handler
            pass
        finally:
            if task is not None:
                self._tasks.discard(task)
            self._writers.discard(writer)
            writer.close()
            try:
                await asyncio.wait_for(
                    writer.wait_closed(), timeout=CLOSE_TIMEOUT_S
                )
            except (asyncio.TimeoutError, ConnectionError, OSError):
                pass  # peer already reset the connection

    def kill(self) -> None:
        """Chaos action: abort every live connection and stop listening.

        Leaves ``port`` assigned so :meth:`restart` can rebind the same
        address (proxied retries then reach the revived origin).
        """
        for task in list(self._tasks):
            task.cancel()
        for writer in list(self._writers):
            writer.transport.abort()
        self._writers.clear()
        if self._server is not None:
            self._server.close()
            self._server = None

    async def restart(self) -> int:
        """Chaos action: rebind the listener after :meth:`kill`."""
        if self._server is not None:
            raise ConfigurationError("origin still running; kill it first")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port or 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        """Graceful teardown: abort connections, await every handler,
        close the listener."""
        server = self._server
        tasks = list(self._tasks)
        self.kill()
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:  # repro: noqa[ASY005] -- kill() cancelled these tasks one line up; absorbing the echo is the reap
                pass  # cancellation is the expected teardown outcome
        if server is not None:
            # Local bookkeeping: kill() already closed the listener and
            # every handler task was awaited above.
            await server.wait_closed()  # repro: noqa[ASY003] -- resolves locally after close(); no peer can wedge it
