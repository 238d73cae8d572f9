"""The supervised asyncio transparent proxy.

Clients connect to the proxy's TCP port and send one header line::

    CONNECT <host> <port> <client-id> <control-port>\\n

The proxy answers with a status line (``OK`` or ``ERR <reason>``),
dials the origin server, relays the upstream direction immediately, and
buffers the downstream direction into the client's queue. A scheduler
task broadcasts a schedule datagram to every registered client's UDP
control port each burst interval, then releases each client's buffered
bytes at its rendezvous point, ending the burst with a mark datagram.
The schedule comes from the slot planner the simulator uses
(:class:`~repro.core.planner.SlotPlanner`), which also judges silent
clients and records every ``scheduler.*`` instrument; this module is
its live driver and keeps only timing and I/O. It plans in seconds
since :meth:`AsyncProxy.start` on the loop clock, the clock of its obs
events too.

This is the paper's §3.2 design with the kernel pieces (bridge, IPQ,
TOS marking) replaced by the userspace substitutions listed in
:mod:`repro.runtime` — production-hardened:

* **Backpressure** — per-client queues are bounded by high/low byte
  watermarks (plus a global cap): past the high watermark the origin
  read pauses, so memory stays bounded and TCP pushes back on the
  origin instead of the proxy buffering without limit.
* **Admission control** — connection/client/byte limits are enforced at
  the CONNECT handshake with an explicit ``ERR overloaded`` status.
* **Connection lifecycle** — origin dials have timeouts and bounded
  exponential-backoff retries, relays have idle timeouts, and liveness
  follows the uplink (TCP bytes or control heartbeats): a silent client
  first loses its burst slot at an SRP, as in the simulator, and then a
  reaper evicts it outright.
* **Supervision** — the scheduler and reaper run under a
  :class:`~repro.runtime.supervisor.TaskSupervisor` that restarts them
  on unexpected exceptions; a vanished client can never halt
  scheduling for the survivors, and ``stop()`` drains writers and
  leaves zero orphaned tasks or sockets.
* **Observability** — the proxy records through :class:`repro.obs`
  under the *same* instrument names as the simulator (the planner's
  ``scheduler.*``, ``proxy.schedules_broadcast``, ``proxy.bursts``,
  ``drops``, ...), so live-vs-sim metric diffs line up name-for-name.
"""

from __future__ import annotations

import asyncio
import logging
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.bandwidth_model import LinearCostModel
from repro.core.planner import Backlog, SlotPlanner, fits
from repro.core.schedule import Schedule
from repro.errors import ConfigurationError, SchedulingError, SocketError
from repro.obs import NULL_RECORDER, Recorder
from repro.runtime.supervisor import TaskSupervisor
from repro.runtime.wire import (
    STATUS_OK,
    decode_heartbeat,
    encode_mark,
    encode_schedule,
    encode_status_error,
)

log = logging.getLogger("repro.runtime")

#: Upper bound on one relayed read.
CHUNK = 64 * 1024
#: Hard cap on simultaneously open proxied connections.
MAX_CONNECTIONS = 1024
#: Hard cap on simultaneously registered clients.
MAX_CLIENTS = 256
#: Global buffered-byte cap across all clients (admission + pause).
MAX_BUFFERED_BYTES = 64 * 1024 * 1024
#: The CONNECT header must arrive within this window.
HANDSHAKE_TIMEOUT_S = 5.0
#: One origin dial attempt may take at most this long.
DIAL_TIMEOUT_S = 2.0
#: Extra dial attempts after the first failure.
DIAL_RETRIES = 2
#: First dial retry backoff; doubles per attempt up to the max.
DIAL_BACKOFF_BASE_S = 0.05
#: Cap on the origin-dial retry backoff.
DIAL_BACKOFF_MAX_S = 1.0
#: Liveness reaper poll interval.
REAP_INTERVAL_S = 0.25
#: A relay direction idle this long is considered finished.
IDLE_TIMEOUT_S = 30.0
#: Bound on one writer drain or close (a stuck client is aborted).
DRAIN_TIMEOUT_S = 1.0

#: Control-datagram kinds handed to the chaos filter.
KIND_SCHEDULE = "schedule"
KIND_MARK = "mark"

#: The planner's price of queued bytes: a 12.5 Mb/s drain and no
#: per-packet overhead. Loopback has no airtime to calibrate against.
LIVE_COST_MODEL = LinearCostModel(overhead_s=0.0, per_byte_s=8 / 12.5e6)


@dataclass
class AsyncProxyConfig:
    """The live proxy's address and the settings its callers vary."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, read back from .port
    #: Fixed burst interval; the live proxy has no variable interval.
    burst_interval_s: float = 0.1

    # -- backpressure -------------------------------------------------------
    #: Per-client queue high watermark: past this the origin read pauses.
    queue_high_bytes: int = 2 * 1024 * 1024
    #: Per-client low watermark: reads resume once the queue drains here.
    queue_low_bytes: int = 512 * 1024

    # -- liveness ----------------------------------------------------------
    #: Uplink silence before a client's burst slot is reclaimed.
    silence_timeout_s: float = 2.0
    #: Uplink silence before the client is evicted outright.
    evict_timeout_s: float = 6.0

    def __post_init__(self) -> None:
        if self.burst_interval_s is None:
            raise ConfigurationError(
                "the live proxy needs a fixed burst interval, not 'variable'"
            )
        if not fits(LIVE_COST_MODEL, self.burst_interval_s, 1):
            raise ConfigurationError(
                f"burst interval {self.burst_interval_s}s is too short "
                "for one slot"
            )
        if self.queue_low_bytes > self.queue_high_bytes:
            raise ConfigurationError(
                f"queue_low_bytes {self.queue_low_bytes} must not exceed "
                f"queue_high_bytes {self.queue_high_bytes}"
            )
        if self.silence_timeout_s <= 0:
            raise ConfigurationError(
                f"silence_timeout_s must be positive: {self.silence_timeout_s!r}"
            )
        if self.evict_timeout_s < self.silence_timeout_s:
            raise ConfigurationError(
                f"evict_timeout_s {self.evict_timeout_s} must be >= "
                f"silence_timeout_s {self.silence_timeout_s}"
            )


class _Connection:
    """One proxied split connection (client side + origin side)."""

    __slots__ = (
        "state", "client_writer", "origin_writer", "tasks",
        "queued_chunks", "downstream_done", "closed",
    )

    def __init__(
        self,
        state: "_ClientState",
        client_writer: asyncio.StreamWriter,
        origin_writer: asyncio.StreamWriter,
    ) -> None:
        self.state = state
        self.client_writer = client_writer
        self.origin_writer = origin_writer
        self.tasks: tuple[asyncio.Task, ...] = ()
        self.queued_chunks = 0
        self.downstream_done = False
        self.closed = False


class _ClientState:
    """Per-client registration, liveness, and bounded downstream queue."""

    __slots__ = (
        "client_id", "control_addr", "queue", "bytes_pending", "bytes_sent",
        "bursts", "peak_pending", "high", "low", "last_uplink",
        "connections", "_writable",
    )

    def __init__(
        self,
        client_id: str,
        control_addr: tuple[str, int],
        high: int,
        low: int,
        now: float,
    ) -> None:
        self.client_id = client_id
        self.control_addr = control_addr
        #: FIFO of (connection, bytes) chunks pending transmission.
        self.queue: deque[tuple[_Connection, bytes]] = deque()
        self.bytes_pending = 0
        self.bytes_sent = 0
        self.bursts = 0
        self.peak_pending = 0
        self.high = high
        self.low = low
        self.last_uplink = now
        self.connections = 0
        self._writable = asyncio.Event()
        self._writable.set()

    def push(self, conn: _Connection, data: bytes) -> None:
        self.queue.append((conn, data))
        conn.queued_chunks += 1
        self.bytes_pending += len(data)
        if self.bytes_pending > self.peak_pending:
            self.peak_pending = self.bytes_pending
        if self.bytes_pending >= self.high:
            self._writable.clear()

    def pop_all(self) -> list[tuple[_Connection, bytes]]:
        chunks = list(self.queue)
        self.queue.clear()
        self.bytes_pending = 0
        self._writable.set()
        return chunks

    async def wait_writable(self) -> None:
        """Backpressure point: origin reads park here above the high
        watermark and resume once a burst drains the queue."""
        await self._writable.wait()

    def release(self) -> None:
        """Unblock any parked reader (eviction/teardown path)."""
        self._writable.set()


class AsyncProxy:
    """The live scheduling proxy."""

    def __init__(
        self,
        config: Optional[AsyncProxyConfig] = None,
        obs: Recorder = NULL_RECORDER,
    ) -> None:
        self.config = config or AsyncProxyConfig()
        self.obs = obs
        self.port: Optional[int] = None
        self.control_port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._control: Optional[asyncio.DatagramTransport] = None
        self._clients: dict[str, _ClientState] = {}
        self._connections: set[_Connection] = set()
        self._handler_tasks: set[asyncio.Task] = set()
        self._supervisor = TaskSupervisor(on_restart=self._on_service_restart)
        #: Optional chaos hook: ``filter(payload, addr, kind) -> deliver?``
        self.control_filter: Optional[
            Callable[[bytes, tuple[str, int], str], bool]
        ] = None

        # -- counters / telemetry -----------------------------------------
        self.schedules_sent = 0
        self.connections_split = 0
        self.connections_refused = 0
        self.evictions = 0
        self.scheduler_restarts = 0
        self.peak_buffered_bytes = 0
        #: Recent schedule-broadcast timestamps (loop clock) for jitter.
        self.broadcast_times: deque[float] = deque(maxlen=4096)

        self._buffered_bytes = 0
        self._global_writable = asyncio.Event()
        self._global_writable.set()
        self.planner = SlotPlanner(
            LIVE_COST_MODEL, self.config.burst_interval_s,
            silence_timeout_s=self.config.silence_timeout_s, obs=obs,
        )
        #: Loop time of ``start()``: the zero of the proxy's clock.
        self._epoch = 0.0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener + control socket; start supervised services."""
        if self._server is not None:
            raise ConfigurationError("proxy already started")
        loop = asyncio.get_running_loop()
        self._epoch = loop.time()
        self._control, _protocol = await loop.create_datagram_endpoint(
            lambda: _ProxyControlProtocol(self),
            local_addr=(self.config.host, 0),
        )
        self.control_port = self._control.get_extra_info("sockname")[1]
        self._server = await asyncio.start_server(
            self._on_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._supervisor.supervise("scheduler", self._scheduler)
        self._supervisor.supervise("reaper", self._reaper)

    async def stop(self) -> None:
        """Tear everything down; afterwards no owned task or socket
        remains open (the teardown tests assert exactly this)."""
        if self._server is not None:
            self._server.close()
        await self._supervisor.stop()
        handlers = list(self._handler_tasks)
        for task in handlers:
            task.cancel()
        for task in handlers:
            try:
                await task
            except asyncio.CancelledError:  # repro: noqa[ASY005] -- stop() cancelled this handler itself one line up; absorbing the echo is the reap
                pass  # expected teardown outcome
            except Exception as exc:
                log.debug("handler raised during teardown: %r", exc)
        self._handler_tasks.clear()
        for conn in list(self._connections):
            await self._close_conn_writers(conn)
        self._connections.clear()
        for state in self._clients.values():
            state.release()
        self._clients.clear()
        self._buffered_bytes = 0
        self._global_writable.set()
        if self._server is not None:
            # Not a peer await: close() already ran and every handler
            # task was cancelled and awaited above, so this resolves
            # locally without waiting on any remote socket.
            await self._server.wait_closed()  # repro: noqa[ASY003] -- local bookkeeping after close(); no peer can wedge it
            self._server = None
        if self._control is not None:
            self._control.close()
            self._control = None

    async def _close_conn_writers(self, conn: _Connection) -> None:
        conn.closed = True
        for writer in (conn.client_writer, conn.origin_writer):
            if writer.is_closing():
                continue
            writer.close()
            try:
                await asyncio.wait_for(writer.wait_closed(), DRAIN_TIMEOUT_S)
            except (asyncio.TimeoutError, ConnectionError, OSError):
                pass  # peer gone or wedged; transport is closed regardless

    def _on_service_restart(self, name: str, exc: BaseException) -> None:
        if name == "scheduler":
            self.scheduler_restarts += 1
        self.obs.counter("runtime.service_restarts", service=name).inc()

    # -- time ----------------------------------------------------------------

    def _now(self) -> float:
        """Seconds since ``start()``: the planning and obs clock."""
        return asyncio.get_running_loop().time() - self._epoch

    # -- connection handling -------------------------------------------------

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        try:
            await self._handshake(reader, writer)
        except asyncio.CancelledError:  # repro: noqa[ASY005] -- stop() awaits this task right after cancelling it; re-raising would spray the loop handler (see below)
            # Teardown mid-handshake: the accepted socket is not yet
            # owned by a _Connection, so close it here. The cancellation
            # is absorbed, not re-raised: stop() awaits this task right
            # after cancelling it, and asyncio's streams done-callback
            # would call .exception() on a still-cancelled task and
            # spray the loop exception handler.
            if not writer.is_closing():
                writer.close()
        finally:
            if task is not None:
                self._handler_tasks.discard(task)

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            header = await asyncio.wait_for(
                reader.readline(), timeout=HANDSHAKE_TIMEOUT_S
            )
        except (asyncio.TimeoutError, ConnectionError, OSError):
            await self._refuse(writer, "bad-connect", count=False)
            return
        parsed = self._parse_connect(header)
        if parsed is None:
            self.obs.counter("drops", reason="bad-connect").inc()
            await self._refuse(writer, "bad-connect")
            return
        host, port, client_id, control_port = parsed
        refusal = self._admission_refusal(client_id)
        if refusal is not None:
            self.obs.counter("drops", reason="overload").inc()
            await self._refuse(writer, refusal)
            return
        try:
            upstream_reader, upstream_writer = await self._dial_origin(
                host, port
            )
        except SocketError:
            # Ghost-client fix: nothing was registered yet, so a failed
            # dial leaves no phantom registration behind.
            self.obs.counter("drops", reason="origin-unreachable").inc()
            await self._refuse(writer, "origin-unreachable")
            return
        state = self._register(client_id, control_port)
        state.connections += 1
        self.connections_split += 1
        conn = _Connection(state, writer, upstream_writer)
        self._connections.add(conn)
        try:
            writer.write(STATUS_OK)
            await asyncio.wait_for(writer.drain(), DRAIN_TIMEOUT_S)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            self._abort_conn(conn, "client-reset")
            return
        conn.tasks = (
            self._supervisor.spawn(
                self._relay_upstream(conn, reader),
                name=f"up:{client_id}",
            ),
            self._supervisor.spawn(
                self._buffer_downstream(conn, upstream_reader),
                name=f"down:{client_id}",
            ),
        )

    @staticmethod
    def _parse_connect(
        header: bytes,
    ) -> Optional[tuple[str, int, str, int]]:
        parts = header.decode(errors="replace").split()
        if len(parts) != 5 or parts[0] != "CONNECT":
            return None
        _, host, port_text, client_id, control_text = parts
        try:
            port = int(port_text)
            control_port = int(control_text)
        except ValueError:
            return None
        if not (0 < port < 65536 and 0 < control_port < 65536):
            return None
        if not client_id:
            return None
        return host, port, client_id, control_port

    def _admission_refusal(self, client_id: str) -> Optional[str]:
        """The refusal reason, or None when the connection is admitted."""
        if len(self._connections) >= MAX_CONNECTIONS:
            return "overloaded"
        if (
            client_id not in self._clients
            and len(self._clients) >= MAX_CLIENTS
        ):
            return "overloaded"
        if self._buffered_bytes >= MAX_BUFFERED_BYTES:
            return "overloaded"
        return None

    async def _refuse(
        self, writer: asyncio.StreamWriter, reason: str, count: bool = True
    ) -> None:
        if count:
            self.connections_refused += 1
        try:
            writer.write(encode_status_error(reason))
            await asyncio.wait_for(writer.drain(), DRAIN_TIMEOUT_S)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass  # the peer is already gone; nothing to tell it
        writer.close()
        try:
            await asyncio.wait_for(writer.wait_closed(), DRAIN_TIMEOUT_S)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass  # refusals are best-effort; the transport is closed

    async def _dial_origin(
        self, host: str, port: int
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """Dial the origin with a timeout and bounded backoff retries."""
        backoff = DIAL_BACKOFF_BASE_S
        last: Optional[BaseException] = None
        for attempt in range(DIAL_RETRIES + 1):
            if attempt:
                self.obs.counter("runtime.dial_retries").inc()
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2.0, DIAL_BACKOFF_MAX_S)
            try:
                return await asyncio.wait_for(
                    asyncio.open_connection(host, port),
                    timeout=DIAL_TIMEOUT_S,
                )
            except (OSError, asyncio.TimeoutError) as exc:
                last = exc
        raise SocketError(
            f"origin dial {host}:{port} failed after "
            f"{DIAL_RETRIES + 1} attempts: {last!r}"
        )

    def _register(self, client_id: str, control_port: int) -> _ClientState:
        state = self._clients.get(client_id)
        if state is None:
            state = _ClientState(
                client_id,
                (self.config.host, control_port),
                high=self.config.queue_high_bytes,
                low=self.config.queue_low_bytes,
                now=self._now(),
            )
            self._clients[client_id] = state
        else:
            # A reconnecting client may have moved its control socket.
            state.control_addr = (self.config.host, control_port)
        self._touch(state)
        return state

    def _touch(self, state: _ClientState) -> None:
        """Record uplink liveness (TCP bytes or a control heartbeat)."""
        state.last_uplink = self._now()

    # -- relays ----------------------------------------------------------------

    async def _relay_upstream(
        self, conn: _Connection, reader: asyncio.StreamReader
    ) -> None:
        """Client → origin bytes flow immediately (requests are tiny)."""
        try:
            while True:
                try:
                    data = await asyncio.wait_for(
                        reader.read(CHUNK), timeout=IDLE_TIMEOUT_S
                    )
                except asyncio.TimeoutError:
                    break  # idle uplink: treat as finished
                if not data:
                    break
                self._touch(conn.state)
                conn.origin_writer.write(data)
                try:
                    await asyncio.wait_for(
                        conn.origin_writer.drain(),
                        timeout=IDLE_TIMEOUT_S,
                    )
                except asyncio.TimeoutError:
                    break  # origin stopped consuming; treat as finished
        except (ConnectionError, OSError):
            pass  # either side reset; the downstream relay cleans up
        finally:
            if not conn.closed and not conn.origin_writer.is_closing():
                # Half-close toward the origin so it still may respond.
                if conn.origin_writer.can_write_eof():
                    try:
                        conn.origin_writer.write_eof()
                    except (ConnectionError, OSError, RuntimeError):
                        pass  # already reset; downstream relay will notice
            self._maybe_finish(conn)

    async def _buffer_downstream(
        self, conn: _Connection, upstream_reader: asyncio.StreamReader
    ) -> None:
        """Origin → client bytes are buffered for the next burst,
        bounded by the per-client and global watermarks."""
        state = conn.state
        try:
            while True:
                await state.wait_writable()
                await self._global_writable.wait()
                if conn.closed:
                    break
                try:
                    data = await asyncio.wait_for(
                        upstream_reader.read(CHUNK),
                        timeout=IDLE_TIMEOUT_S,
                    )
                except asyncio.TimeoutError:
                    break  # idle origin: nothing more to buffer
                if not data:
                    break
                state.push(conn, data)
                self._account_push(len(data))
        except (ConnectionError, OSError):
            pass  # origin reset; deliver whatever was buffered
        finally:
            conn.downstream_done = True
            self._maybe_finish(conn)

    def _account_push(self, nbytes: int) -> None:
        self._buffered_bytes += nbytes
        if self._buffered_bytes > self.peak_buffered_bytes:
            self.peak_buffered_bytes = self._buffered_bytes
        if self._buffered_bytes >= MAX_BUFFERED_BYTES:
            self._global_writable.clear()

    def _account_pop(self, nbytes: int) -> None:
        self._buffered_bytes -= nbytes
        if self._buffered_bytes < MAX_BUFFERED_BYTES:
            self._global_writable.set()

    def _maybe_finish(self, conn: _Connection) -> None:
        """Close a connection once its buffered bytes are delivered."""
        if conn.closed:
            return
        if not conn.downstream_done or conn.queued_chunks > 0:
            return
        conn.closed = True
        self._connections.discard(conn)
        conn.state.connections = max(0, conn.state.connections - 1)
        for writer in (conn.client_writer, conn.origin_writer):
            if not writer.is_closing():
                writer.close()

    def _abort_conn(self, conn: _Connection, reason: str) -> None:
        """Hard-stop a connection (reset, overflow, eviction)."""
        if conn.closed:
            return
        conn.closed = True
        self._connections.discard(conn)
        conn.state.connections = max(0, conn.state.connections - 1)
        self.obs.counter("drops", reason=reason).inc()
        for task in conn.tasks:
            if task is not asyncio.current_task():
                task.cancel()
        for writer in (conn.client_writer, conn.origin_writer):
            transport = writer.transport
            if transport is not None:
                transport.abort()

    # -- liveness --------------------------------------------------------------

    async def _reaper(self) -> None:
        """Evict clients silent past ``evict_timeout_s``. (The planner
        reclaims their slots sooner, at an SRP.)"""
        while True:
            await asyncio.sleep(REAP_INTERVAL_S)
            now = self._now()
            for client_id, state in list(self._clients.items()):
                silent_s = now - state.last_uplink
                if silent_s > self.config.evict_timeout_s:
                    self._evict(client_id, state, silent_s)

    def _evict(
        self, client_id: str, state: _ClientState, silent_s: float
    ) -> None:
        """Crash-proof slot release: drop the registration, abort its
        connections, and discard its buffered bytes."""
        del self._clients[client_id]
        self.planner.forget(client_id)
        self.evictions += 1
        dropped = state.pop_all()
        for conn, data in dropped:
            conn.queued_chunks -= 1
            self._account_pop(len(data))
        if dropped:
            self.obs.counter("drops", reason="evicted").inc(len(dropped))
        for conn in list(self._connections):
            if conn.state is state:
                self._abort_conn(conn, "evicted")
        state.release()
        self.obs.counter("runtime.evictions", client=client_id).inc()
        self.obs.event(
            self._now(), "runtime.evict", client=client_id, silent_s=silent_s,
        )

    # -- scheduling ------------------------------------------------------------

    async def _scheduler(self) -> None:
        """One supervised scheduling loop iteration per burst interval."""
        loop = asyncio.get_running_loop()
        while True:
            broadcast_at = loop.time()
            schedule = self._build_schedule(broadcast_at - self._epoch)
            self._broadcast(schedule)
            self.broadcast_times.append(broadcast_at)
            self.schedules_sent += 1
            self.obs.counter("proxy.schedules_broadcast").inc()
            self.obs.span(
                schedule.srp, schedule.next_srp, "interval", "proxy",
                seq=schedule.seq, slots=len(schedule.slots),
            )
            for slot in schedule.slots:
                delay = slot.rendezvous - self._now()
                if delay > 0:
                    await asyncio.sleep(delay)
                # Crash-window fix: the client may have vanished between
                # _build_schedule and its burst; skip it, never KeyError.
                state = self._clients.get(slot.client_ip)
                if state is None:
                    self.obs.counter("drops", reason="vanished").inc()
                    continue
                self.planner.slot_started(slot, self._now())
                await self._burst(state, schedule.seq)
            remaining = schedule.next_srp - self._now()
            if remaining > 0:
                await asyncio.sleep(remaining)

    def _build_schedule(self, srp: float) -> Schedule:
        """Snapshot the queues and last-heard times and plan one
        interval.

        Queued bytes are planned as TCP backlog. The slot allotments are
        advisory: a burst still sends the client's whole queue.
        """
        clients = self._clients
        backlogs = [
            Backlog(client_id, 0, clients[client_id].bytes_pending)
            for client_id in sorted(clients)
        ]
        last_heard = {
            client_id: state.last_uplink for client_id, state in clients.items()
        }
        return self.planner.plan(srp, backlogs, last_heard).schedule

    def _broadcast(self, schedule: Schedule) -> None:
        payload = encode_schedule(schedule)
        for state in self._clients.values():
            self._send_control(payload, state.control_addr, KIND_SCHEDULE)

    def _send_control(
        self, payload: bytes, addr: tuple[str, int], kind: str
    ) -> bool:
        """Send one control datagram through the chaos filter hook."""
        if self.control_filter is not None and not self.control_filter(
            payload, addr, kind
        ):
            self.obs.counter("drops", reason=f"chaos-{kind}").inc()
            return False
        if self._control is None:
            return False
        try:
            self._control.sendto(payload, addr)
        except OSError:  # pragma: no cover - transient socket issue
            return False
        return True

    async def _burst(self, state: _ClientState, seq: int) -> None:
        chunks = state.pop_all()
        sent = 0
        touched: list[_Connection] = []
        for conn, data in chunks:
            conn.queued_chunks -= 1
            self._account_pop(len(data))
            touched.append(conn)
            if conn.closed or conn.client_writer.is_closing():
                self.obs.counter("drops", reason="conn-closed").inc()
                continue
            conn.client_writer.write(data)
            try:
                # Bounded drain: _burst runs inside the scheduler
                # coroutine, so one wedged client receiver must not
                # stall scheduling for every other client.
                await asyncio.wait_for(conn.client_writer.drain(), DRAIN_TIMEOUT_S)
            except asyncio.TimeoutError:
                self._abort_conn(conn, "client-stalled")
                continue
            except (ConnectionError, OSError):
                self._abort_conn(conn, "client-reset")
                continue
            sent += len(data)
            state.bytes_sent += len(data)
        state.bursts += 1
        self.obs.counter("proxy.bursts", client=state.client_id).inc()
        self.obs.counter("proxy.burst_bytes", client=state.client_id).inc(sent)
        self.obs.gauge(
            "runtime.queue_peak_bytes", client=state.client_id
        ).set(state.peak_pending)
        for conn in touched:
            self._maybe_finish(conn)
        self._send_control(
            encode_mark(state.client_id, seq), state.control_addr, KIND_MARK
        )

    # -- control plane ---------------------------------------------------------

    def _on_control_datagram(
        self, payload: bytes, addr: tuple[str, int]
    ) -> None:
        """Client → proxy control traffic (liveness heartbeats)."""
        try:
            client_id, _seq = decode_heartbeat(payload)
        except SchedulingError:
            # Anything can reach this socket; never let garbage crash
            # the control plane.
            self.obs.counter("drops", reason="bad-control").inc()
            return
        state = self._clients.get(client_id)
        if state is not None:
            self._touch(state)


class _ProxyControlProtocol(asyncio.DatagramProtocol):
    def __init__(self, proxy: AsyncProxy) -> None:
        self.proxy = proxy

    def datagram_received(self, data: bytes, addr: Any) -> None:
        self.proxy._on_control_datagram(data, addr)
