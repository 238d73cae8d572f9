"""Unit tests for DummyNetPipe and MonitoringStation."""

import pytest

from repro.errors import NetworkError
from repro.net.addr import Endpoint
from repro.net.shaper import DummyNetPipe
from repro.net.sniffer import MonitoringStation
from repro.net.udp import UdpSocket
from repro.sim import RngStreams, Simulator
from repro.units import mbps, ms

from tests.net.helpers import wireless_cell


class TestDummyNetPipe:
    def test_paper_configuration(self):
        """4 Mb/s, 2 ms RTT, 5% drop — the paper's §4.3 experiment."""
        from repro.net.node import Node

        sim = Simulator()
        rng = RngStreams(seed=11).get("dummynet")
        pipe = DummyNetPipe(sim, bandwidth_bps=mbps(4), delay_s=ms(1), plr=0.05, rng=rng)
        a = Node(sim, "a", "10.0.0.1")
        b = Node(sim, "b", "10.0.0.2")
        pipe.attach(a.add_interface("e"), b.add_interface("e"))
        a.set_default_route(a.interfaces["e"])
        b.set_default_route(b.interfaces["e"])
        received = []
        UdpSocket(b, 7000, on_receive=lambda p: received.append(p))
        sender = UdpSocket(a, 5000)
        n = 2000
        for seq in range(n):
            sender.sendto(1000, Endpoint("10.0.0.2", 7000), seq=seq)
        sim.run()
        loss = 1.0 - len(received) / n
        assert 0.03 < loss < 0.07

    def test_invalid_plr_rejected(self):
        with pytest.raises(NetworkError):
            DummyNetPipe(Simulator(), mbps(4), plr=1.5)

    def test_plr_without_rng_rejected(self):
        with pytest.raises(NetworkError):
            DummyNetPipe(Simulator(), mbps(4), plr=0.05)

    def test_zero_plr_never_drops(self):
        from repro.net.node import Node

        sim = Simulator()
        pipe = DummyNetPipe(sim, bandwidth_bps=mbps(4))
        a = Node(sim, "a", "10.0.0.1")
        b = Node(sim, "b", "10.0.0.2")
        pipe.attach(a.add_interface("e"), b.add_interface("e"))
        a.set_default_route(a.interfaces["e"])
        received = []
        UdpSocket(b, 7000, on_receive=lambda p: received.append(p))
        sender = UdpSocket(a, 5000)
        for seq in range(100):
            sender.sendto(500, Endpoint("10.0.0.2", 7000), seq=seq)
        sim.run()
        assert len(received) == 100


class TestMonitoringStation:
    def test_hears_unicast_and_broadcast(self):
        sim, medium, gateway, clients = wireless_cell(n_clients=2)
        monitor = MonitoringStation(sim)
        monitor.attach_to(medium)
        UdpSocket(clients[0], 7000)
        sender = UdpSocket(gateway, 5000)
        sender.sendto(100, Endpoint(clients[0].ip, 7000))
        sender.broadcast(50, 7000)
        sim.run()
        assert len(monitor.frames) == 2
        assert monitor.frames[0].dst_ip == clients[0].ip
        assert monitor.frames[1].broadcast

    def test_hears_frames_for_sleeping_clients(self):
        """The monitor's capture is independent of client WNIC state."""
        sim, medium, gateway, clients = wireless_cell(n_clients=1)
        clients[0].interfaces["wl0"].rx_gate = lambda p: False
        monitor = MonitoringStation(sim)
        monitor.attach_to(medium)
        UdpSocket(gateway, 5000).sendto(100, Endpoint(clients[0].ip, 7000))
        sim.run()
        assert len(monitor.frames) == 1

    def test_frame_airtime_bracket(self):
        sim, medium, gateway, clients = wireless_cell(n_clients=1)
        monitor = MonitoringStation(sim)
        monitor.attach_to(medium)
        UdpSocket(clients[0], 7000)
        UdpSocket(gateway, 5000).sendto(1000, Endpoint(clients[0].ip, 7000))
        sim.run()
        frame = monitor.frames[0]
        assert frame.end - frame.start == pytest.approx(
            medium.airtime(frame.wire_size)
        )

    def test_filters(self):
        sim, medium, gateway, clients = wireless_cell(n_clients=2)
        monitor = MonitoringStation(sim)
        monitor.attach_to(medium)
        UdpSocket(clients[0], 7000)
        UdpSocket(clients[1], 7000)
        sender = UdpSocket(gateway, 5000)
        sender.sendto(10, Endpoint(clients[0].ip, 7000))
        sender.sendto(10, Endpoint(clients[1].ip, 7000))
        sim.run()
        assert [f.dst_ip for f in monitor.frames] == [
            clients[0].ip, clients[1].ip,
        ]
        assert {f.src_ip for f in monitor.frames} == {gateway.ip}
        assert monitor.bytes_captured() > 0

    def test_monitor_never_transmits(self):
        sim, medium, gateway, clients = wireless_cell(n_clients=1)
        monitor = MonitoringStation(sim)
        monitor.attach_to(medium)
        UdpSocket(clients[0], 7000)
        UdpSocket(gateway, 5000).sendto(10, Endpoint(clients[0].ip, 7000))
        sim.run()
        assert monitor.packets_sent == 0
