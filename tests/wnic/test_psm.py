"""Unit tests for the 802.11b PSM baseline."""

from repro.net.addr import Endpoint
from repro.net.link import Link
from repro.net.medium import WirelessMedium
from repro.net.node import Node
from repro.net.udp import UdpSocket
from repro.sim import Simulator
from repro.units import mbps, ms
from repro.wnic import Wnic
from repro.wnic.psm import PsmAccessPoint, PsmClient


def build_psm_cell(sim=None, n_clients=1):
    sim = sim or Simulator()
    host = Node(sim, "host", "10.0.2.1")
    ap = PsmAccessPoint(sim, "ap", "10.0.0.254")
    link = Link(sim, mbps(100), ms(0.2))
    host_iface = host.add_interface("eth0")
    link.attach(host_iface, ap.wired)
    host.set_default_route(host_iface)
    medium = WirelessMedium(sim)
    medium.attach(ap.wireless, gateway=True)
    clients = []
    for index in range(n_clients):
        node = Node(sim, f"c{index}", f"10.0.1.{index + 1}")
        iface = node.add_interface("wl0")
        medium.attach(iface)
        node.set_default_route(iface)
        wnic = Wnic(sim, node.name, start_asleep=False)
        daemon = PsmClient(node, wnic, ap)
        clients.append((node, wnic, daemon))
    return sim, host, ap, medium, clients


def test_beacons_are_periodic():
    sim, host, ap, medium, clients = build_psm_cell()
    sim.run(until=1.05)
    assert ap.beacons_sent == 10


def test_client_sleeps_when_no_traffic():
    sim, host, ap, medium, clients = build_psm_cell()
    _node, wnic, _daemon = clients[0]
    sim.run(until=10.0)
    # Mostly asleep: only short beacon wake-ups.
    assert wnic.awake_time(10.0) < 2.0
    assert wnic.wake_count >= 90


def test_buffered_frame_delivered_after_beacon():
    sim, host, ap, medium, clients = build_psm_cell()
    node, wnic, _daemon = clients[0]
    received = []
    UdpSocket(node, 7000, on_receive=lambda p: received.append(sim.now))
    # Send mid-doze: must be buffered, then arrive right after a beacon.
    sim.call_at(0.55, lambda: UdpSocket(host, 5000).sendto(
        500, Endpoint(node.ip, 7000)))
    sim.run(until=1.0)
    assert len(received) == 1
    assert received[0] > 0.6  # held until the t=0.6 beacon
    assert ap.frames_buffered == 1


def test_client_heard_beacons():
    sim, host, ap, medium, clients = build_psm_cell()
    _node, _wnic, daemon = clients[0]
    sim.run(until=2.0)
    assert daemon.beacons_heard >= 18


def test_steady_stream_is_batched_with_beacon_latency():
    """The paper's point: PSM hurts multimedia — every packet sent while
    the station dozes waits for the next beacon (up to ~100 ms)."""
    sim, host, ap, medium, clients = build_psm_cell()
    node, wnic, _daemon = clients[0]
    latencies = []
    UdpSocket(node, 7000, on_receive=lambda p: latencies.append(
        sim.now - p.created_at))
    sender = UdpSocket(host, 5000)

    def stream():
        while sim.now < 5.0:
            sender.sendto(1400, Endpoint(node.ip, 7000))
            yield sim.timeout(0.02)  # 560 kbps continuous stream

    sim.process(stream())
    sim.run(until=5.2)
    assert len(latencies) > 100  # stream is delivered...
    # ...but a large share of packets pay tens of ms of beacon latency.
    delayed = [lat for lat in latencies if lat > 0.02]
    assert len(delayed) > len(latencies) * 0.3
    assert max(latencies) > 0.05
    assert ap.frames_buffered > 50
