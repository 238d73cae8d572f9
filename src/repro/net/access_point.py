"""The wireless access point.

The AP bridges the wired distribution network and the wireless cell.
Forwarding preserves FIFO order but adds a random per-packet processing
delay — the paper's §3.3 observes that "all packets must pass through
the access point [which] can cause a packet to arrive earlier or later
than expected", and this delay is exactly what the clients' delay
compensation algorithms must absorb.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from collections import deque

from repro.net.addr import BROADCAST_IP
from repro.net.node import Interface, Node
from repro.net.packet import Packet
from repro.obs.metrics import DEPTH_BUCKETS
from repro.obs.recorder import Recorder
from repro.sim.core import Simulator
from repro.units import ms, us

#: Fixed base forwarding latency.
BASE_DELAY_S = us(300)
#: Mean of the exponential forwarding jitter.
JITTER_MEAN_S = us(900)
#: Probability of a slow-path forwarding spike.
SPIKE_PROB = 0.03
#: Maximum extra delay of a spike (uniform on [0, max]).
SPIKE_MAX_S = ms(6)


class _ForwardPath:
    """One store-and-forward direction of the AP.

    A callback chain in which each packet costs one heap push: its
    ``_send`` at the end of its forwarding delay. The delay is drawn
    when the packet reaches the head of the path — in ``accept`` when
    the path is idle, in ``_send`` when a packet waits behind the one
    just sent — so the AP's RNG is drawn in the order packets reach the
    head. ``queue`` holds waiting packets only; the packet being
    delayed is ``_in_flight`` (``None`` when the path is idle).
    """

    __slots__ = ("ap", "out_iface", "queue", "_in_flight")

    def __init__(self, ap: "AccessPoint", out_iface: Interface) -> None:
        self.ap = ap
        self.out_iface = out_iface
        self.queue: deque[Packet] = deque()
        self._in_flight: Optional[Packet] = None

    def accept(self, packet: Packet) -> None:
        if self._in_flight is not None:
            self.queue.append(packet)
        else:
            self._in_flight = packet
            self.ap.sim.call_later(self.ap._forwarding_delay(), self._send)

    def _send(self) -> None:
        self.out_iface.send(self._in_flight)
        if self.queue:
            self._in_flight = self.queue.popleft()
            self.ap.sim.call_later(self.ap._forwarding_delay(), self._send)
        else:
            self._in_flight = None


class AccessPoint(Node):
    """A store-and-forward AP with jittery but order-preserving forwarding."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip: str,
        rng: Optional[np.random.Generator] = None,
        obs: Optional[Recorder] = None,
    ) -> None:
        super().__init__(sim, name, ip, obs=obs)
        self.forwarding = True
        self.rng = rng
        self.wired = self.add_interface("wired")
        self.wireless = self.add_interface("wireless")
        # The AP's own broadcasts (e.g. PSM beacons) go on the air.
        self.add_route(BROADCAST_IP, self.wireless)
        self._downlink = _ForwardPath(self, self.wireless)
        self._uplink = _ForwardPath(self, self.wired)
        self.max_downlink_depth = 0
        # Resolved on first downlink forward — eager resolution would
        # register zero-count instruments in traffic-less scenarios and
        # change metrics snapshots.
        self._depth_hist = None
        self._max_depth_gauge = None

    def on_receive(self, in_iface: Interface, packet: Packet) -> None:
        """Receive, but relay wired-side broadcasts into the cell first.

        The proxy broadcasts its schedule messages from the wired side;
        a real AP bridges them onto the air, so ours must too (it also
        still dispatches them locally, as the base class does).
        """
        if packet.is_broadcast and in_iface is self.wired:
            self.forward(in_iface, packet)
        super().on_receive(in_iface, packet)

    def forward(self, in_iface: Interface, packet: Packet) -> None:
        """Queue a transit packet on the appropriate forwarding path."""
        self.packets_forwarded += 1
        if in_iface is self.wired:
            path = self._downlink
            path.accept(packet)
            depth = len(path.queue)
            if depth > self.max_downlink_depth:
                self.max_downlink_depth = depth
            hist = self._depth_hist
            if hist is None:
                hist = self._depth_hist = self.obs.resolve_histogram(
                    "ap.downlink_depth", buckets=DEPTH_BUCKETS, ap=self.name
                )
                self._max_depth_gauge = self.obs.resolve_gauge(
                    "ap.max_downlink_depth", ap=self.name
                )
            hist.observe(depth)
            self._max_depth_gauge.set(self.max_downlink_depth)
        else:
            self._uplink.accept(packet)

    def _forwarding_delay(self) -> float:
        delay = BASE_DELAY_S
        if self.rng is not None:
            delay += self.rng.exponential(JITTER_MEAN_S)
            if SPIKE_PROB > 0 and self.rng.random() < SPIKE_PROB:
                delay += self.rng.uniform(0.0, SPIKE_MAX_S)
        return delay
