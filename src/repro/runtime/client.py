"""The live power-aware client: the client daemon on an asyncio loop.

:class:`AsyncPowerClient` is the asyncio driver of the simulator's
client machine (:class:`~repro.core.daemon.ScheduleMachine`). Schedule
datagrams, the mark datagram and every read of :meth:`fetch` are its
inputs, and its timers run on the loop. A development box has no card
to power down, so the card is a :class:`~repro.wnic.states.Wnic` log on
the loop clock, which the simulator's energy model prices
(:func:`repro.runtime.demo.estimated_savings_pct`).

Liveness: the client answers every control datagram with a heartbeat
back to the proxy's control socket, so the proxy observes uplink
liveness even while the TCP data path is idle. A client that vanishes
(process death, radio loss) simply stops heartbeating and ages out of
the schedule — no explicit goodbye required, mirroring the simulated
proxy's passive ``last_uplink`` signal.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Optional

from repro.core.daemon import ScheduleMachine
from repro.core.delay_comp import AdaptiveCompensator
from repro.core.schedule import Schedule
from repro.errors import OverloadError, ProxyProtocolError, SchedulingError
from repro.obs import NULL_RECORDER, Recorder
from repro.runtime.wire import (
    decode_control,
    decode_status_line,
    encode_heartbeat,
)
from repro.wnic.states import Wnic


class LoopClock:
    """Seconds since the client was built, on the clock the event loop
    runs on; the machine's timers go to the running loop."""

    def __init__(self) -> None:
        self._epoch = time.monotonic()

    @property
    def now(self) -> float:
        return time.monotonic() - self._epoch

    def call_later(
        self, delay: float, fn: Callable[[int], None], token: int
    ) -> asyncio.TimerHandle:
        return asyncio.get_running_loop().call_later(delay, fn, token)


class AsyncPowerClient(ScheduleMachine):
    """Listens for schedules and marks and runs the client daemon."""

    def __init__(self, client_id: str, obs: Recorder = NULL_RECORDER) -> None:
        super().__init__(client_id, obs, AdaptiveCompensator())
        self.driver = self
        self.client_id = client_id
        self.clock = LoopClock()
        self.wnic = Wnic(self.clock, client_id, obs=obs)
        self.control_port: Optional[int] = None
        self.marks_heard = 0
        self.heartbeats_sent = 0
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._timer: Optional[asyncio.TimerHandle] = None
        self._last_seq = 0

    async def start(self) -> int:
        """Bind the UDP control socket and start listening for
        schedules; returns the control port."""
        loop = asyncio.get_running_loop()
        self._transport, _protocol = await loop.create_datagram_endpoint(
            lambda: _ControlProtocol(self),
            local_addr=("127.0.0.1", 0),
        )
        self.control_port = self._transport.get_extra_info("sockname")[1]
        self.on_start(self.clock.now)
        return self.control_port

    def stop(self) -> None:
        """Close the control socket and cancel the pending timer."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    # -- the machine's outputs ---------------------------------------------------

    def wake(self) -> None:
        self.wnic.wake()

    def sleep(self) -> None:
        self.wnic.sleep()

    def arm(self, delay: float, token: int) -> None:
        # Arming makes the previous timer stale, so it need not fire.
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self.clock.call_later(delay, self._fire, token)

    def busy(self) -> bool:
        return False  # the sockets do not need the virtual card up

    def _fire(self, token: int) -> None:
        self._timer = None
        self.on_timer(token, self.clock.now)

    # -- control events ---------------------------------------------------------

    def _on_datagram(self, payload: bytes, addr: tuple[str, int]) -> None:
        try:
            raw = decode_control(payload)
            schedule = (
                Schedule.from_json(raw) if raw["type"] == "schedule" else None
            )
        except SchedulingError:
            # Anything on the network can reach this socket; hostile or
            # truncated datagrams must never take the daemon down.
            return
        if schedule is not None:
            self._last_seq = schedule.seq
            self._heartbeat(addr)
            self.on_schedule(schedule, self.clock.now)
        elif raw["type"] == "mark":
            self._heartbeat(addr)
            self.marks_heard += 1
            self.on_mark(self.clock.now)

    def _heartbeat(self, addr: tuple[str, int]) -> None:
        """Answer the proxy's control socket with a liveness heartbeat."""
        if self._transport is None or self._transport.is_closing():
            return
        try:
            self._transport.sendto(
                encode_heartbeat(self.client_id, self._last_seq), addr
            )
            self.heartbeats_sent += 1
        except OSError:  # pragma: no cover - transient socket issue
            pass

    # -- data path --------------------------------------------------------------

    async def fetch(
        self, proxy_host: str, proxy_port: int, origin: tuple[str, int],
        request: bytes, expect_bytes: int, timeout_s: float = 30.0,
    ) -> bytes:
        """Open a proxied connection and read ``expect_bytes`` back.

        Every read is a data input to the daemon. Raises
        :class:`OverloadError` when the proxy sheds the connection at
        admission, and :class:`ProxyProtocolError` for any other refusal
        (bad handshake, unreachable origin).
        """
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(proxy_host, proxy_port),
            timeout=timeout_s,
        )
        try:
            header = (
                f"CONNECT {origin[0]} {origin[1]} {self.client_id} "
                f"{self.control_port}\n"
            ).encode()
            writer.write(header + request)
            await asyncio.wait_for(writer.drain(), timeout=timeout_s)
            status = await asyncio.wait_for(
                reader.readline(), timeout=timeout_s
            )
            refusal = decode_status_line(status)
            if refusal == "overloaded":
                raise OverloadError("proxy refused admission: overloaded")
            if refusal is not None:
                raise ProxyProtocolError(f"proxy refused connect: {refusal}")
            received = bytearray()
            while len(received) < expect_bytes:
                chunk = await asyncio.wait_for(
                    reader.read(65536), timeout=timeout_s
                )
                if not chunk:
                    break
                self.on_data(self.clock.now)
                received.extend(chunk)
        finally:
            writer.close()
            try:
                await asyncio.wait_for(writer.wait_closed(), timeout=timeout_s)
            except (asyncio.TimeoutError, ConnectionError, OSError):
                pass  # peer reset first; the socket is closed regardless
        return bytes(received)


class _ControlProtocol(asyncio.DatagramProtocol):
    def __init__(self, client: AsyncPowerClient) -> None:
        self.client = client

    def datagram_received(self, data: bytes, addr: Any) -> None:
        self.client._on_datagram(data, addr)
