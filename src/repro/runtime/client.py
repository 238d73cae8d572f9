"""The live power-aware client shim.

A real deployment would transition actual WNIC power states; on a
development box the shim keeps a :class:`VirtualWnic` — a timestamped
sleep/awake log driven by exactly the schedule/burst/mark events the
paper's daemon reacts to. The log feeds the same energy model as the
simulator, giving a wall-clock estimate of what the card *would* have
saved.

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

from repro.core.schedule import Schedule
from repro.errors import OverloadError, ProxyProtocolError, SchedulingError
from repro.obs import NULL_RECORDER, Recorder
from repro.runtime.wire import (
    decode_control,
    decode_status_line,
    encode_heartbeat,
)
from repro.wnic.power import WAVELAN_2_4GHZ, PowerModel


class VirtualWnic:
    """A wall-clock sleep/awake transition log."""

    def __init__(
        self, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self._clock = clock
        self.epoch = clock()
        self.transitions: list[tuple[float, str]] = [(0.0, "idle")]
        self.wake_count = 0

    def _now(self) -> float:
        return self._clock() - self.epoch

    @property
    def is_awake(self) -> bool:
        """True while the virtual card is in a high-power state."""
        return self.transitions[-1][1] != "sleep"

    def sleep(self) -> None:
        """Log a transition to the low-power state (idempotent)."""
        if self.is_awake:
            self.transitions.append((self._now(), "sleep"))

    def wake(self) -> None:
        """Log a transition to the high-power state (idempotent)."""
        if not self.is_awake:
            self.wake_count += 1
            self.transitions.append((self._now(), "idle"))

    def awake_time(self, until: Optional[float] = None) -> float:
        """Total awake seconds since the epoch (up to ``until``).

        ``until`` may point anywhere on the timeline — before, between,
        or after the logged transitions; only awake stretches that
        overlap ``[0, until)`` count.
        """
        end = until if until is not None else self._now()
        if end <= 0:
            return 0.0
        total = 0.0
        for (t0, state), (t1, _s1) in zip(
            self.transitions, self.transitions[1:] + [(end, "end")]
        ):
            if state != "sleep":
                total += max(0.0, min(t1, end) - t0)
        return total

    def wakes_until(self, until: Optional[float] = None) -> int:
        """Number of sleep→awake wake-ups at or before ``until``."""
        end = until if until is not None else self._now()
        count = 0
        previous = "sleep"
        for t, state in self.transitions[1:]:
            if t > end:
                break
            if state != "sleep" and previous == "sleep":
                count += 1
            previous = state
        return count

    def estimated_savings_pct(
        self, power: PowerModel = WAVELAN_2_4GHZ, until: Optional[float] = None
    ) -> float:
        """Energy saved vs an always-idle card (receive time ignored —
        a coarse wall-clock estimate, not the simulator's accounting).

        Only wake-up penalties paid *within* the queried window count,
        so overlapping queries at different ``until`` points stay
        consistent with :meth:`awake_time` over the same window.
        """
        end = until if until is not None else self._now()
        if end <= 0:
            return 0.0
        awake = self.awake_time(end)
        energy = (
            awake * power.idle_w
            + (end - awake) * power.sleep_w
            + self.wakes_until(end) * power.wake_penalty_j
        )
        return 100.0 * (1.0 - energy / (end * power.idle_w))


class AsyncPowerClient:
    """Listens for schedules/marks and drives the virtual WNIC."""

    def __init__(
        self,
        client_id: str,
        early_s: float = 0.006,
        wnic: Optional[VirtualWnic] = None,
        obs: Recorder = NULL_RECORDER,
    ) -> None:
        self.client_id = client_id
        self.early_s = early_s
        self.wnic = wnic or VirtualWnic()
        self.obs = obs
        self.control_port: Optional[int] = None
        self.schedules_heard = 0
        self.marks_heard = 0
        self.heartbeats_sent = 0
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._wake_handle: Optional[asyncio.TimerHandle] = None
        self._last_seq = 0

    async def start(self) -> int:
        """Bind the UDP control socket; returns the control port."""
        loop = asyncio.get_running_loop()
        self._transport, _protocol = await loop.create_datagram_endpoint(
            lambda: _ControlProtocol(self),
            local_addr=("127.0.0.1", 0),
        )
        self.control_port = self._transport.get_extra_info("sockname")[1]
        return self.control_port

    def stop(self) -> None:
        """Close the control socket and cancel pending wake timers."""
        if self._wake_handle is not None:
            self._wake_handle.cancel()
            self._wake_handle = None
        if self._transport is not None:
            self._transport.close()
            self._transport = None

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
            self._on_schedule(schedule)
        elif raw["type"] == "mark":
            self._heartbeat(addr)
            self._on_mark()

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

    def _on_schedule(self, schedule: Schedule) -> None:
        self.schedules_heard += 1
        self.obs.inc("client.schedules_heard", client=self.client_id)
        self.wnic.wake()
        loop = asyncio.get_running_loop()
        slot = schedule.slot_for(self.client_id)
        arrival = loop.time()
        if self._wake_handle is not None:
            self._wake_handle.cancel()
        if slot is not None and slot.rendezvous - schedule.srp > 0.004:
            # Sleep until the burst rendezvous point (adaptive anchor:
            # arrival time plus the schedule's relative offset).
            self.wnic.sleep()
            self._wake_handle = loop.call_at(
                arrival + (slot.rendezvous - schedule.srp) - self.early_s,
                self.wnic.wake,
            )
        elif slot is None:
            # No traffic: sleep until the next schedule.
            self.wnic.sleep()
            self._wake_handle = loop.call_at(
                arrival + schedule.interval - self.early_s, self.wnic.wake
            )

    def _on_mark(self) -> None:
        self.marks_heard += 1
        if self._wake_handle is not None:
            self._wake_handle.cancel()
            self._wake_handle = None
        # Burst over: doze until the next schedule datagram. (The
        # virtual card still "hears" it — the sockets stay open; the
        # sleep/wake log only drives the energy estimate.)
        self.wnic.sleep()

    # -- data path --------------------------------------------------------------

    async def fetch(
        self, proxy_host: str, proxy_port: int, origin: tuple[str, int],
        request: bytes, expect_bytes: int, timeout_s: float = 30.0,
    ) -> bytes:
        """Open a proxied connection and read ``expect_bytes`` back.

        Raises :class:`OverloadError` when the proxy sheds the
        connection at admission, and :class:`ProxyProtocolError` for
        any other refusal (bad handshake, unreachable origin).
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
