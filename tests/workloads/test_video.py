"""Unit tests for the VBR video workload."""

import pytest

from repro.errors import ConfigurationError
from repro.net.addr import Endpoint
from repro.net.udp import UdpSocket
from repro.sim import RngStreams
from repro.units import kbps
from repro.workloads.video import (
    EFFECTIVE_BITRATE_BPS,
    VideoClientApp,
    VideoServerApp,
    VideoStreamConfig,
)

from tests.net.helpers import wire_pair


def make_stream(sim, server, client, nominal=56, duration=10.0, seed=1,
                adaptive=True, feedback=False, start_at=0.0):
    config = VideoStreamConfig(
        nominal_kbps=nominal, duration_s=duration, adaptive=adaptive
    )
    server_app = VideoServerApp(
        server,
        Endpoint(client.ip, 5004),
        config,
        rng=RngStreams(seed).get("video"),
        stream_id=0,
        start_at=start_at,
    )
    client_app = VideoClientApp(
        client,
        Endpoint(server.ip, 20000),
        feedback_endpoint=server_app.feedback_endpoint if feedback else None,
    )
    return server_app, client_app


class TestVideoStreamConfig:
    def test_effective_bitrates_match_paper(self):
        assert EFFECTIVE_BITRATE_BPS[56] == kbps(34)
        assert EFFECTIVE_BITRATE_BPS[128] == kbps(80)
        assert EFFECTIVE_BITRATE_BPS[256] == kbps(225)
        assert EFFECTIVE_BITRATE_BPS[512] == kbps(450)

    def test_unknown_tier_rejected(self):
        with pytest.raises(ConfigurationError):
            VideoStreamConfig(nominal_kbps=300)

    def test_total_bytes(self):
        config = VideoStreamConfig(nominal_kbps=56, duration_s=119.0)
        assert config.total_bytes == int(kbps(34) * 119.0 / 8)

    def test_bad_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            VideoStreamConfig(duration_s=0.0)


class TestVideoStreaming:
    def test_volume_near_effective_bitrate(self):
        sim, a, b, _ = wire_pair()
        server_app, client_app = make_stream(sim, a, b, nominal=256, duration=20.0)
        sim.run(until=25.0)
        expected = kbps(225) * 20.0 / 8
        assert client_app.bytes_received == pytest.approx(expected, rel=0.35)
        assert client_app.loss_fraction == 0.0

    def test_vbr_rate_varies_between_segments(self):
        sim, a, b, _ = wire_pair()
        arrivals = []
        UdpSocket(b, 6004, on_receive=lambda p: arrivals.append(sim.now))
        config = VideoStreamConfig(nominal_kbps=256, duration_s=10.0)
        VideoServerApp(
            a, Endpoint(b.ip, 6004), config,
            rng=RngStreams(3).get("video"), stream_id=1,
        )
        sim.run(until=11.0)
        # count packets per half-second segment: VBR should vary
        counts = {}
        for t in arrivals:
            counts.setdefault(int(t / 0.5), 0)
            counts[int(t / 0.5)] += 1
        assert len(set(counts.values())) > 1

    def test_deterministic_given_seed(self):
        def run(seed):
            sim, a, b, _ = wire_pair()
            server_app, client_app = make_stream(sim, a, b, seed=seed, duration=5.0)
            sim.run(until=6.0)
            return server_app.packets_sent

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_start_delay_respected(self):
        sim, a, b, _ = wire_pair()
        server_app, client_app = make_stream(sim, a, b, duration=5.0, start_at=2.0)
        sim.run(until=1.9)
        assert server_app.packets_sent == 0
        sim.run(until=8.0)
        assert server_app.packets_sent > 0

    def test_stream_stops_at_duration(self):
        sim, a, b, _ = wire_pair()
        server_app, _ = make_stream(sim, a, b, duration=3.0)
        sim.run(until=10.0)
        assert server_app.done


class TestAdaptation:
    def test_downshift_on_reported_loss(self):
        drop = {"rate": 0.0}
        import numpy as np

        rng = np.random.default_rng(5)

        def lossy(packet):
            return (
                packet.dst.port == 5004 and rng.random() < drop["rate"]
            )

        sim, a, b, _ = wire_pair(drop=lossy)
        server_app, client_app = make_stream(
            sim, a, b, nominal=512, duration=30.0, feedback=True
        )
        sim.run(until=5.0)
        assert server_app.current_tier == 512
        drop["rate"] = 0.25  # heavy loss begins
        sim.run(until=31.0)
        assert server_app.downshifts >= 1
        assert server_app.current_tier < 512

    def test_no_adaptation_when_disabled(self):
        import numpy as np

        rng = np.random.default_rng(5)

        def lossy(packet):
            return packet.dst.port == 5004 and rng.random() < 0.3

        sim, a, b, _ = wire_pair(drop=lossy)
        server_app, client_app = make_stream(
            sim, a, b, nominal=512, duration=10.0, adaptive=False,
            feedback=True,
        )
        sim.run(until=12.0)
        assert server_app.downshifts == 0
        assert server_app.current_tier == 512

    def test_loss_fraction_tracks_gaps(self):
        state = {"n": 0}

        def drop_every_fifth(packet):
            if packet.dst.port == 5004:
                state["n"] += 1
                return state["n"] % 5 == 0
            return False

        sim, a, b, _ = wire_pair(drop=drop_every_fifth)
        server_app, client_app = make_stream(sim, a, b, nominal=256, duration=10.0)
        sim.run(until=12.0)
        assert client_app.loss_fraction == pytest.approx(0.2, abs=0.06)
