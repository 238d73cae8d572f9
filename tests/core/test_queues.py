"""Unit tests for per-client packet queues."""

import pytest

from repro.core.queues import ClientQueue, QueueEntry
from repro.errors import SchedulingError
from repro.net.addr import Endpoint
from repro.net.packet import Packet


class FakeConn:
    """Stands in for a TcpConnection (queues only use identity)."""

    def __init__(self, name="conn"):
        self.name = name


def udp_packet(size=500):
    return Packet(
        "udp", Endpoint("10.0.2.1", 20000), Endpoint("10.0.1.1", 5004),
        payload_size=size,
    )


class TestQueueEntry:
    def test_udp_entry_needs_packet(self):
        with pytest.raises(SchedulingError):
            QueueEntry("udp", 100)

    def test_tcp_entry_needs_connection(self):
        with pytest.raises(SchedulingError):
            QueueEntry("tcp", 100)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchedulingError):
            QueueEntry("icmp", 1, packet=udp_packet())


class TestClientQueue:
    def test_push_and_account(self):
        queue = ClientQueue("10.0.1.1", clock=lambda: 0.0)
        queue.push_udp(udp_packet(300))
        queue.push_tcp(FakeConn(), 700)
        assert queue.bytes_pending == 1000
        assert queue.total_enqueued_bytes == 1000
        assert len(queue) == 2
        assert queue.has_udp and queue.has_tcp

    def test_tcp_credits_coalesce(self):
        queue = ClientQueue("c", clock=lambda: 0.0)
        conn = FakeConn()
        queue.push_tcp(conn, 100)
        queue.push_tcp(conn, 200)
        assert len(queue) == 1
        assert queue.bytes_pending == 300

    def test_tcp_credits_do_not_coalesce_across_connections(self):
        queue = ClientQueue("c", clock=lambda: 0.0)
        queue.push_tcp(FakeConn("a"), 100)
        queue.push_tcp(FakeConn("b"), 100)
        assert len(queue) == 2

    def test_zero_byte_tcp_push_ignored(self):
        queue = ClientQueue("c", clock=lambda: 0.0)
        queue.push_tcp(FakeConn(), 0)
        assert queue.empty

    def test_peak_tracks_high_water_mark(self):
        queue = ClientQueue("c", clock=lambda: 0.0)
        queue.push_udp(udp_packet(1000))
        queue.pop_up_to(1000)
        queue.push_udp(udp_packet(400))
        assert queue.peak_bytes == 1000
        assert queue.bytes_pending == 400

    def test_pop_up_to_respects_budget(self):
        queue = ClientQueue("c", clock=lambda: 0.0)
        for _ in range(5):
            queue.push_udp(udp_packet(500))
        taken = queue.pop_up_to(1200)
        assert [e.nbytes for e in taken] == [500, 500]
        assert queue.bytes_pending == 1500

    def test_udp_packets_are_atomic(self):
        queue = ClientQueue("c", clock=lambda: 0.0)
        queue.push_udp(udp_packet(500))
        queue.push_udp(udp_packet(500))
        taken = queue.pop_up_to(700)
        assert len(taken) == 1

    def test_oversized_single_udp_packet_still_pops(self):
        queue = ClientQueue("c", clock=lambda: 0.0)
        queue.push_udp(udp_packet(5000))
        taken = queue.pop_up_to(100)
        assert len(taken) == 1
        assert queue.empty

    def test_tcp_credits_split(self):
        queue = ClientQueue("c", clock=lambda: 0.0)
        conn = FakeConn()
        queue.push_tcp(conn, 1000)
        taken = queue.pop_up_to(400)
        assert taken[0].nbytes == 400
        assert queue.bytes_pending == 600
        rest = queue.pop_up_to(10_000)
        assert rest[0].nbytes == 600

    def test_fifo_order_across_kinds(self):
        queue = ClientQueue("c", clock=lambda: 0.0)
        conn = FakeConn()
        queue.push_udp(udp_packet(100))
        queue.push_tcp(conn, 200)
        queue.push_udp(udp_packet(300))
        kinds = [e.kind for e in queue.pop_up_to(10_000)]
        assert kinds == ["udp", "tcp", "udp"]

    def test_kind_filter_pops_only_matching(self):
        queue = ClientQueue("c", clock=lambda: 0.0)
        conn = FakeConn()
        queue.push_udp(udp_packet(100))
        queue.push_tcp(conn, 200)
        queue.push_udp(udp_packet(300))
        tcp_taken = queue.pop_up_to(10_000, kind="tcp")
        assert [e.kind for e in tcp_taken] == ["tcp"]
        assert queue.bytes_pending == 400
        udp_taken = queue.pop_up_to(10_000, kind="udp")
        assert [e.nbytes for e in udp_taken] == [100, 300]

    def test_negative_budget_rejected(self):
        with pytest.raises(SchedulingError):
            ClientQueue("c", clock=lambda: 0.0).pop_up_to(-1)

    def test_bytes_pending_for(self):
        queue = ClientQueue("c", clock=lambda: 0.0)
        a, b = FakeConn("a"), FakeConn("b")
        queue.push_tcp(a, 100)
        queue.push_tcp(b, 250)
        assert queue.bytes_pending_for(a) == 100
        assert queue.bytes_pending_for(b) == 250

    def test_drop_connection(self):
        queue = ClientQueue("c", clock=lambda: 0.0)
        a, b = FakeConn("a"), FakeConn("b")
        queue.push_tcp(a, 100)
        queue.push_udp(udp_packet(50))
        queue.push_tcp(b, 200)
        dropped = queue.drop_connection(a)
        assert dropped == 100
        assert queue.bytes_pending == 250
        assert queue.bytes_pending_for(a) == 0
