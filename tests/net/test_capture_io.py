"""Tests for capture persistence."""

import pytest

from repro.core.schedule import BurstSlot, Schedule
from repro.errors import TraceError
from repro.net.capture_io import load_capture, save_capture
from repro.net.sniffer import FrameRecord

#: A schedule frame exactly as a version-1 capture stored it.
VERSION_1_SCHEDULE_RECORD = (
    '{"start": 0.2, "end": 0.202, "src_ip": "10.0.0.254", "src_port": 9797, '
    '"dst_ip": "10.0.1.1", "dst_port": 5004, "proto": "udp", '
    '"wire_size": 762, "payload_size": 700, "tos_marked": false, '
    '"broadcast": true, "packet_id": 7, "sender": "ap", '
    '"schedule_meta": {"schedule": {"seq": 1, "srp": 0.2, '
    '"next_srp": 0.3, "slots": []}}}'
)


def frame(start=0.0, schedule=None, marked=False):
    return FrameRecord(
        start=start, end=start + 0.002, src_ip="10.0.0.254", src_port=9797,
        dst_ip="10.0.1.1", dst_port=5004, proto="udp", wire_size=762,
        payload_size=700, tos_marked=marked, broadcast=schedule is not None,
        packet_id=7, sender="ap", schedule=schedule,
    )


class TestCaptureIO:
    def test_round_trip(self, tmp_path):
        schedule = Schedule(
            seq=1, srp=0.2, next_srp=0.3, repeats_next=True,
            slots=(BurstSlot("10.0.1.1", 0.21, 0.01, 700),),
        )
        frames = [frame(0.0), frame(0.1, marked=True), frame(0.2, schedule)]
        path = save_capture(frames, tmp_path / "capture.jsonl")
        loaded = load_capture(path)
        assert loaded == frames

    def test_version_1_schedule_record_loads(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        path.write_text(
            '{"format": "repro-capture", "version": 1}\n'
            + VERSION_1_SCHEDULE_RECORD + "\n"
        )
        (loaded,) = load_capture(path)
        assert loaded == frame(0.2, Schedule(seq=1, srp=0.2, next_srp=0.3))
        assert isinstance(loaded.schedule, Schedule)

    def test_rejects_malformed_schedule(self, tmp_path):
        path = save_capture([frame()], tmp_path / "c.jsonl")
        with path.open("a") as handle:
            handle.write(VERSION_1_SCHEDULE_RECORD.replace(
                '"next_srp": 0.3', '"next_srp": 0.1'
            ) + "\n")
        with pytest.raises(TraceError):
            load_capture(path)

    def test_empty_capture_round_trip(self, tmp_path):
        path = save_capture([], tmp_path / "empty.jsonl")
        assert load_capture(path) == []

    def test_rejects_non_capture_file(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceError):
            load_capture(path)

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"format": "pcap"}\n')
        with pytest.raises(TraceError):
            load_capture(path)

    def test_rejects_corrupt_record(self, tmp_path):
        path = save_capture([frame()], tmp_path / "c.jsonl")
        with path.open("a") as handle:
            handle.write('{"nonsense": true}\n')
        with pytest.raises(TraceError):
            load_capture(path)

    def test_loaded_capture_feeds_replay(self, tmp_path):
        """End-to-end: simulate, save, load, replay."""
        from repro.core.bandwidth_model import calibrate
        from repro.core.client import PowerAwareClient
        from repro.core.delay_comp import AdaptiveCompensator
        from repro.core.scheduler import DynamicScheduler
        from repro.energy.replay import replay_policy
        from repro.experiments.scenarios import (
            ScenarioConfig, build_scenario, client_ip,
        )
        from repro.net.addr import Endpoint
        from repro.net.udp import UdpSocket
        from repro.wnic.power import WAVELAN_2_4GHZ

        scenario = build_scenario(ScenarioConfig(n_clients=1, seed=41))
        scheduler = DynamicScheduler(
            scenario.proxy, calibrate(scenario.medium), interval_s=0.1
        )
        scenario.proxy.attach_scheduler(scheduler)
        scenario.proxy.start()
        handle = scenario.clients[0]
        handle.daemon = PowerAwareClient(handle.node, handle.wnic)
        UdpSocket(handle.node, 5004)
        sender = UdpSocket(scenario.video_server, 25000)

        def feed():
            while scenario.sim.now < 3.0:
                sender.sendto(700, Endpoint(client_ip(0), 5004))
                yield scenario.sim.timeout(0.05)

        scenario.sim.process(feed())
        scenario.sim.run(until=3.5)

        frames = scenario.monitor.frames
        loaded = load_capture(save_capture(frames, tmp_path / "run.jsonl"))
        assert loaded == list(frames)
        result = replay_policy(
            loaded, client_ip(0), AdaptiveCompensator(), WAVELAN_2_4GHZ
        )
        assert result.schedules_heard > 20
        assert result.report.energy_saved_pct > 40.0
        # Saving and loading changes nothing the replay can see.
        assert result == replay_policy(
            frames, client_ip(0), AdaptiveCompensator(), WAVELAN_2_4GHZ
        )
