"""Unit tests for point-to-point links."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.net.addr import Endpoint
from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.udp import UdpSocket
from repro.sim import Simulator
from repro.units import mbps, ms, transmit_time, us

from tests.net.helpers import wire_pair


def test_rejects_nonpositive_rate():
    with pytest.raises(NetworkError):
        Link(Simulator(), rate_bps=0)


def test_rejects_negative_latency():
    with pytest.raises(NetworkError):
        Link(Simulator(), rate_bps=1e6, latency=-1.0)


def test_double_attach_rejected():
    sim, a, b, link = wire_pair()
    with pytest.raises(NetworkError):
        link.attach(a.interfaces["eth0"], b.interfaces["eth0"])


def test_rejected_attach_leaves_both_interfaces_free():
    sim, a, b, link = wire_pair()
    host = Node(sim, "h", "10.0.0.3")
    free = host.add_interface("eth0")
    with pytest.raises(NetworkError):
        Link(sim, mbps(100)).attach(free, b.interfaces["eth0"])
    assert free.channel is None
    # The interface is still usable: it attaches elsewhere and sends.
    peer = Node(sim, "p", "10.0.0.4")
    peer_iface = peer.add_interface("eth0")
    Link(sim, mbps(100)).attach(free, peer_iface)
    host.set_default_route(free)
    received = []
    UdpSocket(peer, 7000, on_receive=received.append)
    UdpSocket(host, 5000).sendto(100, Endpoint("10.0.0.4", 7000))
    sim.run()
    assert len(received) == 1


def test_attach_to_itself_rejected():
    sim = Simulator()
    iface = Node(sim, "a", "10.0.0.1").add_interface("eth0")
    with pytest.raises(NetworkError):
        Link(sim, mbps(100)).attach(iface, iface)
    assert iface.channel is None


def test_transmit_from_foreign_interface_rejected():
    # A link is reached only through the channel of an interface it
    # attached: a stranger's interface has none, so its send is refused
    # and the link carries nothing.
    sim, a, b, link = wire_pair()
    stranger = Node(sim, "x", "10.9.9.9").add_interface("eth0")
    packet = Packet("udp", Endpoint("10.9.9.9", 1), Endpoint("10.0.0.1", 2))
    with pytest.raises(NetworkError):
        stranger.send(packet)
    sim.run()
    assert link.packets_delivered == 0


def test_delivery_time_is_serialization_plus_latency():
    sim, a, b, link = wire_pair(rate=mbps(10), latency=ms(1))
    received = []
    UdpSocket(b, 7000, on_receive=lambda p: received.append(sim.now))
    sender = UdpSocket(a, 5000)
    packet = sender.sendto(1000, Endpoint("10.0.0.2", 7000))
    sim.run()
    expected = transmit_time(packet.wire_size, mbps(10)) + ms(1)
    assert received == [pytest.approx(expected)]


def test_fifo_ordering_per_direction():
    sim, a, b, _link = wire_pair()
    order = []
    UdpSocket(b, 7000, on_receive=lambda p: order.append(p.seq))
    sender = UdpSocket(a, 5000)
    for seq in range(5):
        sender.sendto(1200, Endpoint("10.0.0.2", 7000), seq=seq)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_serialization_delays_accumulate_under_load():
    sim, a, b, _link = wire_pair(rate=mbps(1), latency=0.0)
    times = []
    UdpSocket(b, 7000, on_receive=lambda p: times.append(sim.now))
    sender = UdpSocket(a, 5000)
    for seq in range(3):
        sender.sendto(1000, Endpoint("10.0.0.2", 7000), seq=seq)
    sim.run()
    per_packet = transmit_time(1000 + 62, mbps(1))
    assert times == pytest.approx([per_packet, 2 * per_packet, 3 * per_packet])


def test_full_duplex_directions_independent():
    sim, a, b, _link = wire_pair(rate=mbps(1), latency=0.0)
    arrivals = {}
    UdpSocket(b, 7000, on_receive=lambda p: arrivals.setdefault("b", sim.now))
    UdpSocket(a, 7000, on_receive=lambda p: arrivals.setdefault("a", sim.now))
    UdpSocket(a, 5000).sendto(1000, Endpoint("10.0.0.2", 7000))
    UdpSocket(b, 5001).sendto(1000, Endpoint("10.0.0.1", 7000))
    sim.run()
    # Both directions deliver at the single-packet serialization time.
    assert arrivals["a"] == pytest.approx(arrivals["b"])


def test_drop_hook_discards_packets():
    dropped_every_other = {"count": 0}

    def drop(packet):
        dropped_every_other["count"] += 1
        return dropped_every_other["count"] % 2 == 0

    sim, a, b, link = wire_pair(drop=drop)
    received = []
    UdpSocket(b, 7000, on_receive=lambda p: received.append(p.seq))
    sender = UdpSocket(a, 5000)
    for seq in range(6):
        sender.sendto(100, Endpoint("10.0.0.2", 7000), seq=seq)
    sim.run()
    assert received == [0, 2, 4]
    assert link.counters.get(link.drop_key) == 3
    assert link.packets_delivered == 3


def test_each_packet_costs_one_heap_push():
    # Serialization is a clock, not a callback chain: back-to-back
    # packets over an idle link schedule only their deliveries.
    sim, a, b, link = wire_pair()
    src = a.interfaces["eth0"]
    before = sim._seq
    for seq in range(10):
        src.send(
            Packet("udp", Endpoint("10.0.0.1", 5000),
                   Endpoint("10.0.0.2", 7000), 1000, seq=seq),
        )
    sim.run()
    assert sim._seq - before == 10
    assert link.packets_delivered == 10


# -- differential test against the three-push callback chain ----------------


class _ThreePushDirection:
    """Reference: a link direction as a callback chain that pushes a
    zero-delay start per busy period, then per packet a serialization
    end and a delivery; the drop hook runs at the serialization end."""

    def __init__(self, link, dst_iface):
        self.link = link
        self.dst_iface = dst_iface
        self.queue = deque()
        self.busy = False
        self._in_flight = None

    def transmit(self, src_iface, packet):
        self.queue.append(packet)
        if not self.busy:
            self.busy = True
            self.link.sim.call_later(0.0, self._next)

    def _next(self):
        if not self.queue:
            self.busy = False
            return
        packet = self.queue.popleft()
        self._in_flight = packet
        self.link.sim.call_later(
            transmit_time(packet.wire_size, self.link.rate_bps),
            self._transmitted,
        )

    def _transmitted(self):
        link = self.link
        packet = self._in_flight
        self._in_flight = None
        if link.drop is not None and link.drop(packet):
            link.counters.incr(link.drop_key)
            self._next()
            return
        link.packets_delivered += 1
        link.sim.call_later1(link.latency, self._arrive, packet)
        self._next()

    def _arrive(self, packet):
        self.dst_iface.node.on_receive(self.dst_iface, packet)


class _Tap:
    """A link endpoint, its own node, that logs (time, endpoint, packet
    seq) arrivals."""

    def __init__(self, sim, name, log):
        self.sim = sim
        self.name = name
        self.log = log
        self.channel = None
        self.node = self

    def on_receive(self, iface, packet):
        self.log.append((self.sim.now, self.name, packet.seq))


def _replay(sends, pattern, latency, reference):
    """Drive ``sends`` through one link, both directions; return its
    deliveries, its drop calls as (sim time, packet seq), and its
    delivered and dropped counts."""
    sim = Simulator()
    deliveries, drop_calls = [], []

    def drop(packet):
        drop_calls.append((sim.now, packet.seq))
        return pattern[len(drop_calls) % len(pattern)]

    link = Link(sim, mbps(100), latency, drop=drop)
    a, b = _Tap(sim, "b<-a", deliveries), _Tap(sim, "a<-b", deliveries)
    link.attach(a, b)
    if reference:
        a.channel = _ThreePushDirection(link, b)
        b.channel = _ThreePushDirection(link, a)
    for seq, (tick, a_to_b, payload) in enumerate(sends):
        src = a if a_to_b else b
        packet = Packet("udp", Endpoint("10.0.0.1", 1),
                        Endpoint("10.0.0.2", 2), payload, seq=seq)
        # Direction b->a enqueues 1/3 µs off direction a->b's 5 µs
        # grid; at 0.08 µs per wire byte no sum of serialization times
        # brings the two directions to one instant.
        when = tick * us(5) + (0.0 if a_to_b else us(1) / 3)
        sim.call_at(when, lambda s=src, p=packet: s.channel.transmit(s, p))
    sim.run()
    return (
        deliveries, drop_calls, link.packets_delivered,
        link.counters.get(link.drop_key),
    )


@settings(max_examples=300, deadline=None)
@given(
    sends=st.lists(
        st.tuples(st.integers(0, 400), st.booleans(), st.integers(0, 1500)),
        max_size=60,
    ),
    pattern=st.lists(st.booleans(), min_size=1, max_size=6),
    latency=st.sampled_from([0.0, us(100), ms(1)]),
)
def test_one_push_direction_matches_three_push_reference(
    sends, pattern, latency
):
    ref_deliveries, ref_drops, *ref_counts = _replay(
        sends, pattern, latency, reference=True
    )
    # An exact float tie between the two directions is the one case
    # whose order may differ (DESIGN.md §11); check that the grid
    # offset kept the directions' serialization ends and arrivals apart.
    for shift in (0.0, latency):
        side_at = {}
        for when, seq in ref_drops:
            side = sends[seq][1]
            assert side_at.setdefault(when + shift, side) == side
    deliveries, drops, *counts = _replay(
        sends, pattern, latency, reference=False
    )
    assert deliveries == ref_deliveries
    # Every drop call moved from the serialization end to the arrival
    # instant, the link's constant latency later, in the same order.
    assert drops == [(when + latency, seq) for when, seq in ref_drops]
    assert counts == ref_counts
