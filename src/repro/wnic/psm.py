"""Simplified 802.11b power-save mode (PSM) — a related-work baseline.

The paper argues (§2, citing Chandra & Vahdat) that 802.11b PSM "is not
a good match for multimedia": the AP buffers frames for dozing stations
and announces them in a beacon's traffic-indication map (TIM) every
~100 ms, so a station streaming media ends up awake almost continuously
while still paying the beacon wake-ups. This module implements enough
of PSM to reproduce that comparison:

* :class:`PsmAccessPoint` — buffers downlink frames for registered
  dozing stations and flushes them right after each beacon, flagging
  the last frame per station with ``psm_more=False``;
* :class:`PsmClient` — wakes for every beacon, stays awake while the
  TIM lists it, sleeps otherwise.
"""

from __future__ import annotations

from collections import deque

from repro.net.access_point import AccessPoint
from repro.net.node import Interface, Node
from repro.net.packet import Packet
from repro.net.udp import UdpSocket
from repro.wnic.states import Wnic

#: UDP port beacons are broadcast on.
BEACON_PORT = 1000
#: Beacon interval (~100 ms, the 802.11 default of 102.4 ms).
BEACON_INTERVAL_S = 0.1
#: Beacon frame payload bytes.
BEACON_SIZE = 60
#: A station wakes this long before each beacon.
WAKE_GUARD_S = 0.002
#: A listed station dozes again once no data arrived for this long.
DRAIN_GRACE_S = 0.05


class PsmAccessPoint(AccessPoint):
    """An AP that implements PSM frame buffering and TIM beacons."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._psm_stations: dict[str, Wnic] = {}
        self._buffers: dict[str, deque[Packet]] = {}
        self._beacon_socket = UdpSocket(self, BEACON_PORT)
        self.beacons_sent = 0
        self.frames_buffered = 0
        self.sim.process(self._beacon_loop())

    def register_psm_station(self, ip: str, wnic: Wnic) -> None:
        """Declare that station ``ip`` uses PSM with the given card."""
        self._psm_stations[ip] = wnic
        self._buffers[ip] = deque()

    def forward(self, in_iface: Interface, packet: Packet) -> None:
        """Buffer downlink frames for dozing PSM stations."""
        if in_iface is self.wired:
            wnic = self._psm_stations.get(packet.dst.ip)
            if wnic is not None and not wnic.is_awake:
                self.frames_buffered += 1
                self._buffers[packet.dst.ip].append(packet)
                self.obs.counter(
                    "psm.frames_buffered", station=packet.dst.ip
                ).inc()
                return
        super().forward(in_iface, packet)

    def _beacon_loop(self):
        while True:
            yield self.sim.timeout(BEACON_INTERVAL_S)
            tim = sorted(ip for ip, buf in self._buffers.items() if buf)
            self._beacon_socket.broadcast(
                BEACON_SIZE, BEACON_PORT, meta={"psm_beacon": True, "tim": tim}
            )
            self.beacons_sent += 1
            self.obs.event(
                self.sim.now, "psm.beacon", ap=self.name, tim=len(tim)
            )
            self.obs.counter("psm.beacons", ap=self.name).inc()
            for ip in tim:
                self._flush_station(ip)

    def _flush_station(self, ip: str) -> None:
        buffer = self._buffers[ip]
        while buffer:
            packet = buffer.popleft()
            packet.meta["psm_more"] = bool(buffer)
            self.wireless.send(packet)


class PsmClient:
    """A PSM station daemon: doze, wake at beacons, drain buffered data."""

    def __init__(
        self,
        node: Node,
        wnic: Wnic,
        ap: PsmAccessPoint,
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.wnic = wnic
        self.ap = ap
        node.interfaces["wl0"].rx_gate = wnic.can_receive
        self._beacon_socket = UdpSocket(node, BEACON_PORT, on_receive=self._on_beacon)
        self._wakeup = None
        self._last_data_at = 0.0
        self.beacons_heard = 0
        self.node.taps.insert(0, self._watch_data)
        ap.register_psm_station(node.ip, wnic)
        self.sim.process(self._run())

    def _watch_data(self, packet: Packet, iface) -> bool:
        if packet.dst.ip == self.node.ip:
            self._last_data_at = self.sim.now
            if packet.meta.get("psm_more") is False and self._wakeup is not None:
                wakeup, self._wakeup = self._wakeup, None
                if not wakeup.triggered:
                    wakeup.succeed("drained")
        return False

    def _on_beacon(self, packet: Packet) -> None:
        self.beacons_heard += 1
        listed = self.node.ip in packet.meta.get("tim", [])
        if not listed and self._wakeup is not None:
            wakeup, self._wakeup = self._wakeup, None
            if not wakeup.triggered:
                wakeup.succeed("not-listed")

    def _run(self):
        sim = self.sim
        self.wnic.sleep()
        beacon_index = 1
        while True:
            target = beacon_index * BEACON_INTERVAL_S - WAKE_GUARD_S
            if target > sim.now:
                yield sim.timeout(target - sim.now)
            self.wnic.wake()
            self._wakeup = sim.event()
            # Wait to learn whether we are listed; fall back after a grace
            # period so a lost beacon cannot strand us awake forever.
            grace = sim.timeout(WAKE_GUARD_S + DRAIN_GRACE_S)
            result = yield sim.any_of([self._wakeup, grace])
            while self._wakeup is not None and not self._wakeup.processed:
                # Listed in the TIM (or beacon lost): stay awake until the
                # buffer drains or traffic goes quiet.
                idle_for = sim.now - self._last_data_at
                if idle_for >= DRAIN_GRACE_S:
                    break
                yield sim.timeout(DRAIN_GRACE_S - idle_for)
            self._wakeup = None
            self.wnic.sleep()
            beacon_index = max(
                beacon_index + 1, int(sim.now / BEACON_INTERVAL_S) + 1
            )
