"""Shared topology builders for network-layer tests."""

from repro.net.link import Link
from repro.net.medium import WirelessMedium
from repro.net.node import Node
from repro.sim import Simulator
from repro.units import mbps, ms


def wire_pair(sim=None, rate=mbps(100), latency=ms(0.2), drop=None):
    """Two nodes 'a' (10.0.0.1) and 'b' (10.0.0.2) joined by a link."""
    sim = sim or Simulator()
    a = Node(sim, "a", "10.0.0.1")
    b = Node(sim, "b", "10.0.0.2")
    link = Link(sim, rate_bps=rate, latency=latency, drop=drop)
    ia, ib = a.add_interface("eth0"), b.add_interface("eth0")
    link.attach(ia, ib)
    a.set_default_route(ia)
    b.set_default_route(ib)
    return sim, a, b, link


def wireless_cell(sim=None, n_clients=2, rng=None, trace=None, **medium_kwargs):
    """An AP-less cell: a gateway node plus n client nodes on one medium."""
    sim = sim or Simulator()
    medium = WirelessMedium(sim, rng=rng, trace=trace, **medium_kwargs)
    gateway = Node(sim, "gw", "10.0.0.254")
    gw_iface = gateway.add_interface("wl0")
    medium.attach(gw_iface, gateway=True)
    gateway.set_default_route(gw_iface)
    clients = []
    for index in range(n_clients):
        client = Node(sim, f"c{index}", f"10.0.1.{index + 1}")
        iface = client.add_interface("wl0")
        medium.attach(iface)
        client.set_default_route(iface)
        clients.append(client)
    return sim, medium, gateway, clients
