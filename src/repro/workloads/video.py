"""VBR video streaming (the paper's RealServer / RealOne workload).

The paper streams a 1:59 trailer encoded at nominal 56/128/256/512 kbps
whose *effective* bitrates are 34/80/225/450 kbps. We synthesize the
same load: a unicast UDP packet train whose rate varies per half-second
segment (lognormal factors around the effective rate, emulating VBR
GOP structure), seeded per client so every run is reproducible.

RealServer's adaptation — the cause of the paper's 512 kbps anomaly,
where streams downshift once the shared medium saturates and the
"lossy" connection is blamed — is reproduced by
:class:`VideoClientApp` sending periodic receiver reports upstream and
:class:`VideoServerApp` dropping to the next lower tier when reported
loss exceeds a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.net.addr import Endpoint
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.udp import UdpSocket
from repro.units import kbps

#: nominal (kbps) -> effective bits/s, straight from the paper (§4.1).
EFFECTIVE_BITRATE_BPS = {
    56: kbps(34),
    128: kbps(80),
    256: kbps(225),
    512: kbps(450),
}
#: Downshift order used by the adaptation logic.
TIERS = (512, 256, 128, 56)

#: UDP ports.
VIDEO_PORT = 5004
FEEDBACK_PORT = 5005

#: Receiver reports every this many seconds.
FEEDBACK_INTERVAL_S = 2.0
#: Reported loss above this triggers a downshift.
ADAPT_LOSS_THRESHOLD = 0.05

#: VBR granularity: one rate draw per segment.
SEGMENT_S = 0.5
#: Payload of one datagram (a typical RealVideo packet).
PACKET_PAYLOAD = 700
#: Lognormal spread of the per-segment rate factor.
RATE_SIGMA = 0.35


@dataclass
class VideoStreamConfig:
    """One client's stream parameters."""

    nominal_kbps: int = 56
    duration_s: float = 119.0  # the 1:59 trailer
    adaptive: bool = True

    def __post_init__(self) -> None:
        if self.nominal_kbps not in EFFECTIVE_BITRATE_BPS:
            raise ConfigurationError(
                f"unknown tier {self.nominal_kbps}; "
                f"choose from {sorted(EFFECTIVE_BITRATE_BPS)}"
            )
        if self.duration_s <= 0:
            raise ConfigurationError("durations must be positive")

    @property
    def effective_bps(self) -> float:
        return EFFECTIVE_BITRATE_BPS[self.nominal_kbps]

    @property
    def total_bytes(self) -> int:
        """Nominal stream volume (before VBR noise and adaptation)."""
        return int(self.effective_bps * self.duration_s / 8)


class VideoServerApp:
    """Streams one unicast video to one client over UDP."""

    def __init__(
        self,
        server: Node,
        client_endpoint: Endpoint,
        config: VideoStreamConfig,
        rng: np.random.Generator,
        stream_id: int = 0,
        start_at: float = 0.0,
    ) -> None:
        self.server = server
        self.sim = server.sim
        self.client_endpoint = client_endpoint
        self.config = config
        self.rng = rng
        self.stream_id = stream_id
        self.start_at = start_at
        self.current_tier = config.nominal_kbps
        self.downshifts = 0
        self.bytes_sent = 0
        self.packets_sent = 0
        self._seq = 0
        self._socket = UdpSocket(server, 20000 + stream_id)
        self.feedback_endpoint = Endpoint(server.ip, FEEDBACK_PORT + stream_id)
        self._feedback_socket = UdpSocket(
            server,
            FEEDBACK_PORT + stream_id,
            on_receive=self._on_feedback,
        )
        self.done = False
        self._end_at = 0.0
        self._segment_left = 0
        self._spacing = 0.0
        # Same single push at construction as the old process bootstrap.
        self.sim.call_later(0.0, self._start)

    def _on_feedback(self, packet: Packet) -> None:
        if not self.config.adaptive:
            return
        loss = packet.meta.get("loss_fraction", 0.0)
        if loss > ADAPT_LOSS_THRESHOLD:
            index = TIERS.index(self.current_tier)
            if index + 1 < len(TIERS):
                self.current_tier = TIERS[index + 1]
                self.downshifts += 1

    # The stream is a callback chain (one timer per packet) rather than
    # a generator process. Per tick the chain makes exactly one heap
    # push at the instant the old ``yield sim.timeout(spacing)`` did,
    # and the per-segment VBR draw happens at the same tick it did in
    # the generator, so the packet timeline — and the shared RNG stream
    # — are byte-identical.

    def _start(self) -> None:
        sim = self.sim
        if self.start_at > sim.now:
            sim.call_later(self.start_at - sim.now, self._begin)
        else:
            self._begin()

    def _begin(self) -> None:
        self._end_at = self.sim.now + self.config.duration_s
        self._tick()

    def _tick(self) -> None:
        sim = self.sim
        if sim.now >= self._end_at:
            self.done = True
            return
        if self._segment_left == 0:
            rate = EFFECTIVE_BITRATE_BPS[self.current_tier]
            factor = float(np.exp(self.rng.normal(0.0, RATE_SIGMA)))
            segment_bytes = max(
                PACKET_PAYLOAD, int(rate * factor * SEGMENT_S / 8)
            )
            n_packets = max(1, round(segment_bytes / PACKET_PAYLOAD))
            self._segment_left = n_packets
            self._spacing = SEGMENT_S / n_packets
        self._socket.sendto(
            PACKET_PAYLOAD,
            self.client_endpoint,
            seq=self._seq,
            meta={"stream": "video", "tier": self.current_tier},
        )
        self._seq += 1
        self.packets_sent += 1
        self.bytes_sent += PACKET_PAYLOAD
        self._segment_left -= 1
        sim.call_later(self._spacing, self._tick)


class VideoClientApp:
    """Receives the stream, tracks loss, reports upstream."""

    def __init__(
        self,
        client: Node,
        server_endpoint: Endpoint,
        feedback_endpoint: Optional[Endpoint] = None,
        report_offset_s: float = 0.0,
    ) -> None:
        self.client = client
        self.sim = client.sim
        self.server_endpoint = server_endpoint
        self.feedback_endpoint = feedback_endpoint
        self.report_offset_s = report_offset_s
        self.packets_received = 0
        self.bytes_received = 0
        self.highest_seq = -1
        self._window_received = 0
        self._window_highest = -1
        self._window_base = -1
        self._socket = UdpSocket(client, VIDEO_PORT, on_receive=self._on_packet)
        self._feedback_socket = (
            UdpSocket(client, VIDEO_PORT + 1000) if feedback_endpoint else None
        )
        if feedback_endpoint is not None:
            self.sim.process(self._report_loop())

    def _on_packet(self, packet: Packet) -> None:
        self.packets_received += 1
        self.bytes_received += packet.payload_size
        self.highest_seq = max(self.highest_seq, packet.seq)
        self._window_received += 1
        self._window_highest = max(self._window_highest, packet.seq)

    @property
    def loss_fraction(self) -> float:
        """Lifetime loss estimate from sequence gaps."""
        expected = self.highest_seq + 1
        if expected <= 0:
            return 0.0
        return max(0.0, 1.0 - self.packets_received / expected)

    def _report_loop(self):
        sim = self.sim
        # Stagger the first report: real players' RTCP timers are phased
        # by when each stream started, not synchronized to each other
        # (synchronized reports would collide with schedule broadcasts).
        yield sim.timeout(self.report_offset_s % FEEDBACK_INTERVAL_S)
        while True:
            yield sim.timeout(FEEDBACK_INTERVAL_S)
            expected = self._window_highest - self._window_base
            loss = 0.0
            if expected > 0:
                loss = max(0.0, 1.0 - self._window_received / expected)
            self._feedback_socket.sendto(
                64,
                self.feedback_endpoint,
                meta={"loss_fraction": loss},
            )
            self._window_base = self._window_highest
            self._window_received = 0
