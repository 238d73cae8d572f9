"""Shared half-duplex wireless medium (the 802.11b cell).

One frame is in the air at a time; stations queue FIFO for the channel.
Every attached station *hears* every frame: unicast frames are consumed
by the addressed station (or by the gateway — the access point — when
the destination is not a wireless station), broadcast frames by
everyone, and promiscuous stations (the monitoring station) record all
of them. A station whose receive gate is closed (WNIC asleep) misses
frames addressed to it; the medium records those misses, which is how
packet loss enters the evaluation.

Delivery does not walk the whole cell per frame: a per-address index
holds each unicast frame's receivers (the promiscuous stations plus the
addressee, in attach order), so a frame costs the same in a cell of 10
stations or 250. Broadcasts still visit every station.

The airtime model is ``overhead + wire_size * 8 / rate`` plus a random
contention backoff, which for 1500-byte frames on an 11 Mbps channel
yields the ~4-5 Mbps effective goodput the paper reports.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Optional

import numpy as np

from repro.errors import NetworkError
from repro.faults.counters import FaultCounters
from repro.net.node import Interface
from repro.net.packet import Packet
from repro.obs.metrics import BYTES_BUCKETS
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.sim.core import Simulator
from repro.sim.random import buffered_draws
from repro.units import mbps, ms, transmit_time

#: Nominal channel rate (the testbed's 11 Mb/s WaveLAN cell).
RATE_BPS = mbps(11)
#: Fixed per-frame MAC/PHY overhead (preamble, SIFS, MAC ACK).
FRAME_OVERHEAD_S = ms(0.8)
#: Upper bound of the uniform contention backoff.
MAX_BACKOFF_S = ms(0.4)

#: An attached interface with its ``promiscuous`` flag as read at attach.
Station = tuple[Interface, bool]


class WirelessMedium:
    """A shared wireless channel connecting the AP and the clients."""

    def __init__(
        self,
        sim: Simulator,
        rng: Optional[np.random.Generator] = None,
        drop: Optional[Callable[[Packet], bool]] = None,
        counters: Optional[FaultCounters] = None,
        obs: Optional[Recorder] = None,
    ) -> None:
        self.sim = sim
        self.obs = obs if obs is not None else NULL_RECORDER
        self.drop = drop
        self.counters = counters if counters is not None else FaultCounters()
        #: Optional fault-injection pipeline (see :mod:`repro.faults`);
        #: consulted per frame after airtime, before delivery.
        self.faults = None
        #: Optional per-client channel model (see
        #: :mod:`repro.net.channel`): a client in the bad state loses
        #: uplink frames on transmit and downlink frames at its antenna.
        #: Draws live on exclusive ``channel*`` streams, so installing
        #: one never perturbs fault-plan or backoff replays.
        self.channel = None
        #: Attached stations, in attach order.
        self._stations: list[Station] = []
        #: The promiscuous stations, in attach order: every frame's
        #: receivers besides its addressee.
        self._monitors: tuple[Station, ...] = ()
        #: Delivery index: per station address, the receivers of a
        #: unicast frame to it — the promiscuous stations plus the
        #: stations bound to that address, in attach order. An address
        #: missing here belongs to no station (the gateway side).
        self._receivers: dict[str, tuple[Station, ...]] = {}
        #: Clients that roamed away mid-flight: frames addressed to them
        #: die in this cell instead of bouncing off the gateway. Empty
        #: (and free) outside campus runs.
        self.departed: set[str] = set()
        #: Campus cell label ("" outside campus runs); when set, frame
        #: events and miss counters carry a ``cell`` label.
        self.cell = ""
        self._cell_fields: dict[str, str] = {}
        #: Per-proto (frames counter, frame-bytes histogram) instruments,
        #: kept from first use.
        self._frame_handles: dict[str, tuple] = {}
        self._gateway: Optional[Interface] = None
        self._queue: deque[tuple[Interface, Packet]] = deque()
        #: The next contention backoff. ``rng`` ("medium-backoff") is
        #: exclusive to this draw site, so buffered draws yield the
        #: values of scalar ones (pinned by the kernel-equivalence
        #: goldens).
        self._next_backoff = (
            None if rng is None
            else buffered_draws(partial(rng.uniform, 0.0, MAX_BACKOFF_S))
        )
        self._busy = False
        self._in_flight: Optional[tuple[Interface, Packet, float]] = None
        self.frames_sent = 0
        self.frames_missed = 0
        #: (destination, payload bytes) of every missed unicast data
        #: frame, in miss order, whatever the obs mode: the energy
        #: analyzer's loss accounting.
        self.data_misses: list[tuple[str, int]] = []

    # -- topology ----------------------------------------------------------

    def attach(self, iface: Interface, gateway: bool = False) -> None:
        """Attach a station; ``gateway=True`` marks the access point side.

        The interface's ``promiscuous`` flag is read here, once: it
        decides whether the station hears every frame until it detaches.
        """
        if iface.channel is not None:
            raise NetworkError(f"{iface!r} is already attached to a channel")
        if gateway and self._gateway is not None:
            raise NetworkError("medium already has a gateway")
        iface.channel = self
        station = (iface, iface.promiscuous)
        self._stations.append(station)
        self.departed.discard(iface.node.ip)
        if gateway:
            self._gateway = iface
        if station[1]:
            self._reindex()
        else:
            ip = iface.node.ip
            self._receivers[ip] = (
                self._receivers.get(ip, self._monitors) + (station,)
            )

    def detach(self, iface: Interface) -> None:
        """Detach a roaming station (the handoff coordinator's half)."""
        if iface is self._gateway:
            raise NetworkError("cannot detach the gateway interface")
        if iface.channel is not self:
            raise NetworkError(f"{iface!r} is not attached to this medium")
        station = next(s for s in self._stations if s[0] is iface)
        self._stations.remove(station)
        iface.channel = None
        if station[1]:
            self._reindex()
            return
        ip = iface.node.ip
        receivers = tuple(
            other for other in self._receivers[ip] if other is not station
        )
        if any(other.node.ip == ip for other, _ in receivers):
            self._receivers[ip] = receivers
        else:
            del self._receivers[ip]

    def _reindex(self) -> None:
        """Rebuild the whole delivery index (the monitor set changed)."""
        monitors: list[Station] = []
        receivers: dict[str, list[Station]] = {}
        for station in self._stations:
            ip = station[0].node.ip
            if station[1]:
                for listed in receivers.values():
                    listed.append(station)
                monitors.append(station)
                receivers.setdefault(ip, list(monitors))
            else:
                receivers.setdefault(ip, list(monitors)).append(station)
        self._monitors = tuple(monitors)
        self._receivers = {ip: tuple(listed) for ip, listed in receivers.items()}

    def set_cell(self, label: str) -> None:
        """Label this medium as campus cell ``label`` for obs purposes."""
        self.cell = label
        self._cell_fields = {"cell": label} if label else {}

    @property
    def stations(self) -> tuple[Interface, ...]:
        """All attached interfaces, in attach order."""
        return tuple(iface for iface, _ in self._stations)

    # -- airtime -------------------------------------------------------------

    def airtime(self, wire_size: int) -> float:
        """Deterministic part of one frame's channel occupancy."""
        return FRAME_OVERHEAD_S + transmit_time(wire_size, RATE_BPS)

    # -- transmission -----------------------------------------------------------

    def transmit(self, src_iface: Interface, packet: Packet) -> None:
        """Queue ``packet`` for the channel; FIFO, one frame at a time."""
        if src_iface.channel is not self:
            raise NetworkError(f"{src_iface!r} is not attached to this medium")
        self._queue.append((src_iface, packet))
        if not self._busy:
            self._busy = True
            self._next_frame()

    # The medium's arbitration loop is a callback chain with one heap
    # push per frame, its airtime timer. An idle medium starts a frame
    # inside ``transmit``; a busy one queues it, and ``_frame_done``
    # starts the next. ``_busy`` stays set while ``_frame_done``
    # delivers, so a station that answers a frame synchronously queues
    # its reply behind the frames already waiting. Backoff is drawn
    # when a frame starts, in FIFO order.

    def _next_frame(self) -> None:
        if not self._queue:
            self._busy = False
            return
        sim = self.sim
        src_iface, packet = self._queue.popleft()
        occupancy = self.airtime(packet.wire_size)
        if self._next_backoff is not None:
            occupancy += self._next_backoff()
        self._in_flight = (src_iface, packet, sim.now)
        sim.call_later(occupancy, self._frame_done)

    def _frame_done(self) -> None:
        sim = self.sim
        src_iface, packet, start = self._in_flight
        self._in_flight = None
        now = sim.now
        if self.drop is not None and self.drop(packet):
            self.counters.incr("medium.channel_drop")
            self.obs.event(
                now, "medium.drop.channel",
                src=packet.src.ip, dst=packet.dst.ip,
                size=packet.wire_size,
            )
            self._next_frame()
            return
        if self.faults is not None:
            verdict = self.faults.judge(now, packet)
            if verdict is not None:
                self.counters.incr(f"faults.{verdict.reason}")
                if verdict.action == "drop":
                    self.obs.event(
                        now, "medium.drop.fault",
                        reason=verdict.reason,
                        src=packet.src.ip, dst=packet.dst.ip,
                        size=packet.wire_size,
                        broadcast=packet.is_broadcast,
                    )
                    self._next_frame()
                    return
                if verdict.action == "reorder":
                    # Requeue behind everything currently waiting:
                    # the frame burns airtime again and arrives
                    # late and out of order.
                    self._queue.append((src_iface, packet))
                    self._next_frame()
                    return
                if verdict.action == "duplicate":
                    # Deliver now and transmit a second copy after
                    # the queue drains (a spurious MAC retry).
                    self._queue.append((src_iface, packet))
        if self.channel is not None and self.channel.tx_blocked(now, packet):
            # The sender's own channel faded: the frame burned airtime
            # but arrives nowhere (uplink ACKs, feedback reports).
            self.counters.incr("channel.tx_loss")
            self.obs.event(
                now, "medium.drop.channel_state",
                src=packet.src.ip, dst=packet.dst.ip,
                size=packet.wire_size,
            )
            self._next_frame()
            return
        self.frames_sent += 1
        self._deliver(src_iface, packet, start, now)
        self._next_frame()

    def _deliver(
        self, src_iface: Interface, packet: Packet, start: float, end: float
    ) -> None:
        obs = self.obs
        if obs.record_events:
            obs.event(
                end, "medium.frame",
                start=start, end=end,
                src=packet.src.ip, dst=packet.dst.ip,
                src_port=packet.src.port, dst_port=packet.dst.port,
                proto=packet.proto, size=packet.wire_size,
                payload=packet.payload_size, marked=packet.tos_marked,
                broadcast=packet.is_broadcast,
                sender=src_iface.node.name,
                packet_id=packet.packet_id,
                **self._cell_fields,
            )
        handles = self._frame_handles.get(packet.proto)
        if handles is None:
            handles = (
                obs.counter(
                    "medium.frames", proto=packet.proto, **self._cell_fields
                ),
                obs.histogram(
                    "medium.frame_bytes", buckets=BYTES_BUCKETS,
                    proto=packet.proto, **self._cell_fields,
                ),
            )
            self._frame_handles[packet.proto] = handles
        handles[0].inc()
        handles[1].observe(packet.wire_size)
        dst_ip = packet.dst.ip
        if packet.is_broadcast:
            addressed, receivers = None, self._stations
        else:
            addressed = self._receivers.get(dst_ip)
            receivers = self._monitors if addressed is None else addressed
        for iface, promiscuous in receivers:
            if iface is src_iface:
                continue
            if promiscuous:
                iface.node.on_receive(iface, packet)
                continue
            # Every other receiver is addressed: a broadcast reaches
            # all stations, a unicast frame only those bound to its
            # destination.
            out_of_range = self.faults is not None and not self.faults.can_hear(
                end, iface.node.ip
            )
            # The receive-side channel roll happens for every addressed
            # in-range station — even a sleeping one — so the draw
            # sequence depends only on the frame stream, never on WNIC
            # state.
            faded = (
                not out_of_range
                and self.channel is not None
                and self.channel.rx_blocked(end, iface.node.ip)
            )
            if not out_of_range and not faded and iface.can_receive(packet):
                iface.node.on_receive(iface, packet)
            else:
                if out_of_range:
                    cause = "churn"
                    counter = "faults.churn_miss"
                elif faded:
                    cause = "channel"
                    counter = "channel.rx_miss"
                else:
                    cause = "sleep"
                    counter = "medium.sleep_miss"
                self._record_miss(end, packet, iface.node.ip, cause, counter)
        if packet.is_broadcast or addressed is not None:
            # A broadcast, or a station's own address: nothing leaves
            # the cell.
            return
        if dst_ip in self.departed:
            # The addressee roamed away mid-flight: the frame dies here
            # instead of bouncing between the gateway and the medium.
            self._record_miss(
                end, packet, dst_ip, "handoff", "campus.handoff_miss"
            )
            return
        # Not a wireless station's address: hand it up to the gateway (AP).
        if self._gateway is not None and self._gateway is not src_iface:
            self._gateway.node.on_receive(self._gateway, packet)

    def _record_miss(
        self, end: float, packet: Packet, dst_ip: str, cause: str,
        counter: str,
    ) -> None:
        """Account one frame that did not reach ``dst_ip``."""
        self.frames_missed += 1
        self.counters.incr(counter)
        if not packet.is_broadcast and packet.payload_size > 0:
            self.data_misses.append((dst_ip, packet.payload_size))
        self.obs.event(
            end, "medium.miss",
            dst=dst_ip, proto=packet.proto,
            size=packet.wire_size, payload=packet.payload_size,
            marked=packet.tos_marked,
            broadcast=packet.is_broadcast,
            packet_id=packet.packet_id,
            **self._cell_fields,
        )
        self.obs.counter(
            "medium.misses", dst=dst_ip, cause=cause, **self._cell_fields,
        ).inc()
