"""Unit tests for the access point."""

import pytest

from repro.net import access_point
from repro.net.access_point import AccessPoint
from repro.net.addr import Endpoint
from repro.net.link import Link
from repro.net.medium import WirelessMedium
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.udp import UdpSocket
from repro.sim import RngStreams, Simulator
from repro.units import mbps, ms


def build_infrastructure(sim=None, rng=None, n_clients=2):
    """wired host -- link -- AP -- medium -- clients."""
    sim = sim or Simulator()
    host = Node(sim, "host", "10.0.2.1")
    ap = AccessPoint(sim, "ap", "10.0.0.254", rng=rng)
    link = Link(sim, mbps(100), ms(0.2))
    host_iface = host.add_interface("eth0")
    link.attach(host_iface, ap.wired)
    host.set_default_route(host_iface)
    medium = WirelessMedium(sim)
    medium.attach(ap.wireless, gateway=True)
    clients = []
    for index in range(n_clients):
        client = Node(sim, f"c{index}", f"10.0.1.{index + 1}")
        iface = client.add_interface("wl0")
        medium.attach(iface)
        client.set_default_route(iface)
        clients.append(client)
    return sim, host, ap, medium, clients


def test_downlink_forwarding():
    sim, host, ap, medium, clients = build_infrastructure()
    received = []
    UdpSocket(clients[0], 7000, on_receive=lambda p: received.append(p))
    UdpSocket(host, 5000).sendto(321, Endpoint(clients[0].ip, 7000))
    sim.run()
    assert len(received) == 1
    assert received[0].payload_size == 321
    assert ap.packets_forwarded == 1


def test_uplink_forwarding():
    sim, host, ap, medium, clients = build_infrastructure()
    received = []
    UdpSocket(host, 7000, on_receive=lambda p: received.append(p))
    UdpSocket(clients[0], 5000).sendto(55, Endpoint(host.ip, 7000))
    sim.run()
    assert len(received) == 1


def test_round_trip_udp_echo():
    sim, host, ap, medium, clients = build_infrastructure()
    client = clients[0]
    echoed = []

    def echo(packet):
        host_socket.sendto(packet.payload_size, packet.src)

    host_socket = UdpSocket(host, 7000, on_receive=echo)
    UdpSocket(client, 6000, on_receive=lambda p: echoed.append(sim.now)).sendto(
        10, Endpoint(host.ip, 7000)
    )
    sim.run()
    assert len(echoed) == 1


def test_forwarding_preserves_fifo_order_despite_jitter():
    rng = RngStreams(seed=3).get("ap")
    sim, host, ap, medium, clients = build_infrastructure(rng=rng)
    order = []
    UdpSocket(clients[0], 7000, on_receive=lambda p: order.append(p.seq))
    sender = UdpSocket(host, 5000)
    for seq in range(20):
        sender.sendto(800, Endpoint(clients[0].ip, 7000), seq=seq)
    sim.run()
    assert order == list(range(20))


def test_jitter_varies_forwarding_delay(monkeypatch):
    monkeypatch.setattr(access_point, "JITTER_MEAN_S", ms(1))
    monkeypatch.setattr(access_point, "SPIKE_PROB", 0.2)
    rng = RngStreams(seed=3).get("ap")
    sim, host, ap, medium, clients = build_infrastructure(rng=rng)
    times = []
    UdpSocket(clients[0], 7000, on_receive=lambda p: times.append(sim.now))
    sender = UdpSocket(host, 5000)
    for seq in range(30):
        # spaced sends so queueing does not mask jitter
        sim.call_at(
            seq * 0.05,
            lambda s=seq: sender.sendto(100, Endpoint(clients[0].ip, 7000), seq=s),
        )
    sim.run()
    deltas = [t - round(t / 0.05) * 0.05 for t in times]
    assert max(deltas) - min(deltas) > ms(0.5)  # visible jitter


def test_no_rng_means_deterministic_delay():
    sim, host, ap, medium, clients = build_infrastructure(rng=None)
    times = []
    UdpSocket(clients[0], 7000, on_receive=lambda p: times.append(sim.now))
    sender = UdpSocket(host, 5000)
    for seq in range(5):
        sim.call_at(
            seq * 0.1,
            lambda s=seq: sender.sendto(100, Endpoint(clients[0].ip, 7000), seq=s),
        )
    sim.run()
    gaps = {round(b - a, 9) for a, b in zip(times, times[1:])}
    assert len(gaps) == 1  # identical per-packet latency


def test_downlink_queue_depth_tracked():
    sim, host, ap, medium, clients = build_infrastructure()
    sender = UdpSocket(host, 5000)
    for seq in range(50):
        sender.sendto(1400, Endpoint(clients[0].ip, 7000), seq=seq)
    UdpSocket(clients[0], 7000)
    sim.run()
    assert ap.max_downlink_depth > 1


def test_downlink_packet_costs_one_push_per_hop():
    rng = RngStreams(seed=3).get("ap")
    sim, host, ap, medium, clients = build_infrastructure(rng=rng)
    before = sim._seq
    for seq in range(10):
        ap.forward(
            ap.wired,
            Packet("udp", Endpoint(host.ip, 5000),
                   Endpoint(clients[0].ip, 7000), 1000, seq=seq),
        )
    sim.run()
    # Per packet: its forwarding-delay timer and its airtime timer.
    assert sim._seq - before == 20
    assert medium.frames_sent == 10
