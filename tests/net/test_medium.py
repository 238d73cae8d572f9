"""Unit tests for the shared wireless medium."""

import pytest

from repro.errors import NetworkError
from repro.net.addr import Endpoint
from repro.net.medium import MAX_BACKOFF_S
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.udp import UdpSocket
from repro.obs.recorder import SimRecorder
from repro.sim import RngStreams

from tests.net.helpers import wireless_cell


def test_unicast_reaches_addressed_station_only():
    sim, medium, gateway, clients = wireless_cell(n_clients=3)
    hits = []
    for client in clients:
        UdpSocket(client, 7000, on_receive=lambda p, c=client: hits.append(c.name))
    gw_socket = UdpSocket(gateway, 5000)
    gw_socket.sendto(500, Endpoint(clients[1].ip, 7000))
    sim.run()
    assert hits == ["c1"]


def test_broadcast_reaches_every_station():
    sim, medium, gateway, clients = wireless_cell(n_clients=3)
    hits = []
    for client in clients:
        UdpSocket(client, 7000, on_receive=lambda p, c=client: hits.append(c.name))
    UdpSocket(gateway, 5000).broadcast(100, 7000)
    sim.run()
    assert sorted(hits) == ["c0", "c1", "c2"]


def test_half_duplex_serializes_transmissions():
    sim, medium, gateway, clients = wireless_cell(n_clients=2)
    times = []
    for client in clients:
        UdpSocket(client, 7000, on_receive=lambda p: times.append(sim.now))
    sender = UdpSocket(gateway, 5000)
    sender.sendto(1000, Endpoint(clients[0].ip, 7000))
    sender.sendto(1000, Endpoint(clients[1].ip, 7000))
    sim.run()
    airtime = medium.airtime(1000 + 62)
    assert times == pytest.approx([airtime, 2 * airtime])


def test_frames_not_for_stations_go_to_gateway():
    sim, medium, gateway, clients = wireless_cell(n_clients=1)
    heard = []
    gateway.taps.append(lambda p, i: (heard.append(p.dst.ip), True)[1])
    UdpSocket(clients[0], 5000).sendto(100, Endpoint("192.168.7.7", 80))
    sim.run()
    assert heard == ["192.168.7.7"]


def test_sender_does_not_hear_its_own_frame():
    sim, medium, gateway, clients = wireless_cell(n_clients=1)
    hits = []
    UdpSocket(gateway, 7000, on_receive=lambda p: hits.append("gw"))
    # gateway sends a broadcast; only the client may hear it
    UdpSocket(clients[0], 7000, on_receive=lambda p: hits.append("client"))
    UdpSocket(gateway, 5000).broadcast(100, 7000)
    sim.run()
    assert hits == ["client"]


def test_rx_gate_blocks_and_records_miss():
    obs = SimRecorder()
    sim, medium, gateway, clients = wireless_cell(n_clients=1, obs=obs)
    client = clients[0]
    client.interfaces["wl0"].rx_gate = lambda packet: False  # asleep
    received = []
    UdpSocket(client, 7000, on_receive=lambda p: received.append(p))
    UdpSocket(gateway, 5000).sendto(500, Endpoint(client.ip, 7000))
    sim.run()
    assert received == []
    assert medium.frames_missed == 1
    misses = list(obs.trace.query("medium.miss"))
    assert len(misses) == 1
    assert misses[0].fields["dst"] == client.ip
    assert medium.data_misses == [(client.ip, 500)]


def test_missed_unicast_does_not_leak_to_gateway():
    sim, medium, gateway, clients = wireless_cell(n_clients=1)
    clients[0].interfaces["wl0"].rx_gate = lambda packet: False
    leaked = []
    gateway.taps.append(lambda p, i: (leaked.append(p), True)[1])
    UdpSocket(gateway, 5000).sendto(100, Endpoint(clients[0].ip, 7000))
    sim.run()
    assert leaked == []


def test_backoff_uses_rng_and_stays_bounded():
    rng = RngStreams(seed=5).get("medium")
    sim, medium, gateway, clients = wireless_cell(n_clients=1, rng=rng)
    times = []
    UdpSocket(clients[0], 7000, on_receive=lambda p: times.append(sim.now))
    sender = UdpSocket(gateway, 5000)
    for seq in range(10):
        sender.sendto(1000, Endpoint(clients[0].ip, 7000), seq=seq)
    sim.run()
    base = medium.airtime(1000 + 62)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(base <= gap <= base + MAX_BACKOFF_S for gap in gaps)


def test_channel_drop_hook():
    obs = SimRecorder()
    sim, medium, gateway, clients = wireless_cell(
        n_clients=1, obs=obs, drop=lambda p: True
    )
    received = []
    UdpSocket(clients[0], 7000, on_receive=lambda p: received.append(p))
    UdpSocket(gateway, 5000).sendto(100, Endpoint(clients[0].ip, 7000))
    sim.run()
    assert received == []
    assert obs.trace.count("medium.drop.channel") == 1
    assert medium.frames_sent == 0


def test_attach_two_gateways_rejected():
    sim, medium, gateway, clients = wireless_cell(n_clients=1)
    other = Node(sim, "gw2", "10.0.0.253")
    iface = other.add_interface("wl0")
    with pytest.raises(NetworkError):
        medium.attach(iface, gateway=True)
    assert iface.channel is None
    assert iface not in medium.stations


def test_frame_trace_records_timing_and_sizes():
    obs = SimRecorder()
    sim, medium, gateway, clients = wireless_cell(n_clients=1, obs=obs)
    UdpSocket(clients[0], 7000)
    UdpSocket(gateway, 5000).sendto(400, Endpoint(clients[0].ip, 7000))
    sim.run()
    frames = list(obs.trace.query("medium.frame"))
    assert len(frames) == 1
    fields = frames[0].fields
    assert fields["payload"] == 400
    assert fields["end"] - fields["start"] == pytest.approx(
        medium.airtime(400 + 62)
    )


def test_idle_medium_starts_a_frame_without_a_wakeup_push():
    sim, medium, gateway, clients = wireless_cell(n_clients=1)
    src = gateway.interfaces["wl0"]
    before = sim._seq
    for seq in range(10):
        medium.transmit(
            src,
            Packet("udp", Endpoint(gateway.ip, 5000),
                   Endpoint(clients[0].ip, 7000), 1000, seq=seq),
        )
    sim.run()
    # One airtime timer per frame and nothing else.
    assert sim._seq - before == 10
    assert medium.frames_sent == 10
