"""Unit tests for node dispatch and UDP sockets."""

import pytest

from repro.errors import NetworkError, SocketError
from repro.net.addr import Endpoint
from repro.net.link import Link
from repro.net.node import Node
from repro.net.udp import UdpSocket
from repro.sim import Simulator
from repro.units import mbps, ms

from tests.net.helpers import wire_pair


class TestNode:
    def test_duplicate_interface_rejected(self):
        node = Node(Simulator(), "n", "10.0.0.1")
        node.add_interface("eth0")
        with pytest.raises(NetworkError):
            node.add_interface("eth0")

    def test_route_specific_beats_default(self):
        node = Node(Simulator(), "n", "10.0.0.1")
        eth0, eth1 = node.add_interface("eth0"), node.add_interface("eth1")
        node.set_default_route(eth0)
        node.add_route("10.0.0.9", eth1)
        assert node.route_for("10.0.0.9") is eth1
        assert node.route_for("10.0.0.7") is eth0

    def test_unroutable_send_counts_drop(self):
        node = Node(Simulator(), "n", "10.0.0.1")
        socket = UdpSocket(node, 5000)
        socket.sendto(10, Endpoint("10.0.0.2", 80))
        assert node.packets_dropped_no_route == 1

    def test_tap_consumes_packet(self):
        sim, a, b, _ = wire_pair()
        b.taps.append(lambda p, i: True)
        received = []
        UdpSocket(b, 7000, on_receive=lambda p: received.append(p))
        UdpSocket(a, 5000).sendto(10, Endpoint("10.0.0.2", 7000))
        sim.run()
        assert received == []

    def test_tap_pass_through(self):
        sim, a, b, _ = wire_pair()
        seen = []
        b.taps.append(lambda p, i: (seen.append(p), False)[1])
        received = []
        UdpSocket(b, 7000, on_receive=lambda p: received.append(p))
        UdpSocket(a, 5000).sendto(10, Endpoint("10.0.0.2", 7000))
        sim.run()
        assert len(seen) == 1 and len(received) == 1

    def test_forwarding_chain(self):
        """a -- m -- b : middle node forwards transit packets."""
        sim = Simulator()
        a = Node(sim, "a", "10.0.0.1")
        m = Node(sim, "m", "10.0.0.2")
        b = Node(sim, "b", "10.0.0.3")
        m.forwarding = True
        l1 = Link(sim, mbps(100), ms(0.1))
        l2 = Link(sim, mbps(100), ms(0.1))
        ia = a.add_interface("eth0")
        im1, im2 = m.add_interface("eth0"), m.add_interface("eth1")
        ib = b.add_interface("eth0")
        l1.attach(ia, im1)
        l2.attach(im2, ib)
        a.set_default_route(ia)
        m.add_route("10.0.0.1", im1)
        m.add_route("10.0.0.3", im2)
        b.set_default_route(ib)
        received = []
        UdpSocket(b, 7000, on_receive=lambda p: received.append(p))
        UdpSocket(a, 5000).sendto(99, Endpoint("10.0.0.3", 7000))
        sim.run()
        assert len(received) == 1
        assert m.packets_forwarded == 1

    def test_non_forwarding_node_drops_transit(self):
        sim, a, b, _ = wire_pair()
        UdpSocket(a, 5000).sendto(10, Endpoint("10.55.55.55", 80))
        sim.run()
        assert b.packets_dropped_no_handler == 1


class TestUdpSocket:
    def test_queue_mode_recv(self):
        sim, a, b, _ = wire_pair()
        receiver = UdpSocket(b, 7000)
        UdpSocket(a, 5000).sendto(42, Endpoint("10.0.0.2", 7000))
        got = []

        def consumer():
            packet = yield receiver.recv()
            got.append(packet.payload_size)

        sim.process(consumer())
        sim.run()
        assert got == [42]

    def test_try_recv(self):
        sim, a, b, _ = wire_pair()
        receiver = UdpSocket(b, 7000)
        assert receiver.try_recv() is None
        UdpSocket(a, 5000).sendto(1, Endpoint("10.0.0.2", 7000))
        sim.run()
        assert receiver.try_recv().payload_size == 1

    def test_send_on_closed_socket_raises(self):
        sim, a, _b, _ = wire_pair()
        socket = UdpSocket(a, 5000)
        socket.close()
        with pytest.raises(SocketError):
            socket.sendto(1, Endpoint("10.0.0.2", 7000))

    def test_closed_socket_stops_receiving(self):
        sim, a, b, _ = wire_pair()
        received = []
        receiver = UdpSocket(b, 7000, on_receive=lambda p: received.append(p))
        receiver.close()
        UdpSocket(a, 5000).sendto(1, Endpoint("10.0.0.2", 7000))
        sim.run()
        assert received == []
        assert b.packets_dropped_no_handler == 1

    def test_spoofed_source(self):
        sim, a, b, _ = wire_pair()
        seen = []
        UdpSocket(b, 7000, on_receive=lambda p: seen.append(p.src))
        UdpSocket(a, 5000).sendto(
            1, Endpoint("10.0.0.2", 7000), src=Endpoint("99.9.9.9", 1234)
        )
        sim.run()
        assert seen == [Endpoint("99.9.9.9", 1234)]

    def test_spoofed_bind_receives_foreign_address(self):
        """A socket bound to a spoofed ip receives packets for that ip."""
        sim, a, b, _ = wire_pair()
        received = []
        UdpSocket(
            b, 7000, on_receive=lambda p: received.append(p), local_ip="77.7.7.7"
        )
        # b's tap redirects transit packets into local dispatch
        b.taps.append(lambda p, i: b.try_dispatch(p))
        UdpSocket(a, 5000).sendto(5, Endpoint("77.7.7.7", 7000))
        sim.run()
        assert len(received) == 1

    def test_byte_counters(self):
        sim, a, b, _ = wire_pair()
        receiver = UdpSocket(b, 7000)
        sender = UdpSocket(a, 5000)
        sender.sendto(100, Endpoint("10.0.0.2", 7000))
        sender.sendto(200, Endpoint("10.0.0.2", 7000))
        sim.run()
        assert sender.bytes_sent == 300
        assert receiver.bytes_received == 300
        assert receiver.datagrams_received == 2


class TestUdpSocketModes:
    def test_recv_on_callback_socket_raises(self):
        sim, _a, b, _ = wire_pair()
        socket = UdpSocket(b, 7000, on_receive=lambda p: None)
        with pytest.raises(SocketError):
            socket.recv()
        with pytest.raises(SocketError):
            socket.try_recv()

    def test_send_only_and_callback_sockets_allocate_no_inbox(self):
        sim, a, b, _ = wire_pair()
        received = []
        receiver = UdpSocket(b, 7000, on_receive=received.append)
        sender = UdpSocket(a, 5000)
        for _ in range(3):
            sender.sendto(10, Endpoint("10.0.0.2", 7000))
        sim.run()
        assert len(received) == 3
        assert sender._inbox is None
        assert receiver._inbox is None

    def test_queue_mode_receive_order_unchanged(self):
        sim, a, b, _ = wire_pair()
        receiver = UdpSocket(b, 7000)
        assert receiver.try_recv() is None
        sender = UdpSocket(a, 5000)
        got = []

        def consumer():
            # The first recv() waits on a buffer that holds nothing yet.
            for _ in range(2):
                packet = yield receiver.recv()
                got.append(packet.payload_size)

        sim.process(consumer())
        for size in (11, 22, 33, 44):
            sender.sendto(size, Endpoint("10.0.0.2", 7000))
        sim.run()
        got.extend(
            packet.payload_size
            for packet in iter(receiver.try_recv, None)
        )
        assert got == [11, 22, 33, 44]
