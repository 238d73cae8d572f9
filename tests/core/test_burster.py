"""Unit tests for burst transmission and the marking protocol."""

from repro.core.burster import Burster, MarkingController
from repro.core.queues import ClientQueue
from repro.core.schedule import BurstSlot
from repro.net.addr import Endpoint
from repro.net.packet import Packet
from repro.net.tcp import TcpConnection, TcpListener
from repro.net.udp import UdpSocket

from tests.net.helpers import wire_pair


def make_established_pair():
    """A real TCP connection pair a->b, fully established."""
    sim, a, b, _link = wire_pair()
    accepted = []
    TcpListener(b, 80, lambda conn: accepted.append(conn))
    client = TcpConnection.connect(a, Endpoint("10.0.0.2", 80))
    sim.run(until=2.0)
    assert client.state == "ESTABLISHED"
    return sim, a, b, client, accepted[0]


def udp_entry_packet(size, dst="10.0.0.2"):
    return Packet(
        "udp", Endpoint("10.0.2.1", 20000), Endpoint(dst, 5004),
        payload_size=size,
    )


def slot_for(nbytes, ip="10.0.0.2"):
    return BurstSlot(
        client_ip=ip, rendezvous=0.0, duration=0.1, bytes_allotted=nbytes
    )


class TestMarkingController:
    def test_marks_segment_containing_mark_byte(self):
        sim, a, b, sender, receiver = make_established_pair()
        marked = []
        b.taps.append(
            lambda p, i: (marked.append(p.seq) if p.tos_marked else None, False)[1]
        )
        controller = MarkingController(sender)
        controller.hand_bytes(3000, mark_last=True)
        sim.run(until=5.0)
        # mark byte = offset 1 + 3000 - 1 = 3000; segments are
        # [1,1461), [1461,2921), [2921,3001) -> third is marked.
        assert marked == [2921]
        assert controller.segments_marked == 1

    def test_unmarked_hand_off(self):
        sim, a, b, sender, receiver = make_established_pair()
        saw_mark = []
        b.taps.append(
            lambda p, i: (saw_mark.append(p) if p.tos_marked else None, False)[1]
        )
        controller = MarkingController(sender)
        controller.hand_bytes(1000, mark_last=False)
        sim.run(until=5.0)
        assert saw_mark == []

    def test_sent_fwd_invariant(self):
        sim, a, b, sender, receiver = make_established_pair()
        controller = MarkingController(sender)
        controller.hand_bytes(5000, mark_last=True)
        sim.run(until=5.0)
        # paper invariant: fwd <= sent (and equal once everything left)
        assert controller.fwd_offset <= controller.sent_offset
        assert controller.fwd_offset == controller.sent_offset

    def test_mark_stalled_by_window_survives_later_marks(self):
        """A marked hand-off whose final byte is stuck behind the send
        window must still be marked once the window reopens, even when
        later hand-offs set newer marks in the meantime."""
        sim, a, b, sender, receiver = make_established_pair()
        marked = []
        b.taps.append(
            lambda p, i: (
                marked.append((p.seq, p.end_seq)) if p.tos_marked else None,
                False,
            )[1]
        )
        sender.cwnd = sender.peer_rwnd
        controller = MarkingController(sender)
        # First hand-off overflows the initial window, so its mark byte
        # cannot be emitted synchronously; the second overwrites the
        # paper's scalar `mark` variable before the window reopens.
        first = sender.peer_rwnd + 500
        marks = []
        for size in (first, 2000):
            marks.append(sender.app_limit + size - 1)
            controller.hand_bytes(size, mark_last=True)
        sim.run(until=30.0)
        for mark_byte in marks:
            assert any(s <= mark_byte < e for s, e in marked)
        assert controller.segments_marked == 2

    def test_retransmitted_mark_segment_is_marked_again(self):
        drop_state = {"dropped": False}

        def drop_marked_once(packet):
            if packet.tos_marked and not drop_state["dropped"]:
                drop_state["dropped"] = True
                return True
            return False

        sim, a, b, _link = wire_pair(drop=drop_marked_once)
        accepted = []
        TcpListener(b, 80, lambda conn: accepted.append(conn))
        client = TcpConnection.connect(a, Endpoint("10.0.0.2", 80))
        sim.run(until=2.0)
        marks_seen = []
        b.taps.append(
            lambda p, i: (marks_seen.append(p.seq) if p.tos_marked else None, False)[1]
        )
        controller = MarkingController(client)
        controller.hand_bytes(2000, mark_last=True)
        sim.run(until=10.0)
        assert drop_state["dropped"]
        # The retransmission carrying the mark byte is marked too.
        assert len(marks_seen) >= 1
        assert controller.segments_marked >= 2  # original + retransmit


class TestBurster:
    def test_udp_burst_marks_last_packet(self):
        sim, a, b, _link = wire_pair()
        received = []
        UdpSocket(b, 5004, on_receive=lambda p: received.append(p.tos_marked))
        queue = ClientQueue("10.0.0.2", clock=lambda: 0.0)
        for _ in range(3):
            queue.push_udp(udp_entry_packet(400))
        burster = Burster(a)
        sent = burster.burst(queue, slot_for(10_000))
        sim.run()
        assert sent == 1200
        assert received == [False, False, True]

    def test_burst_respects_allotment(self):
        sim, a, b, _link = wire_pair()
        received = []
        UdpSocket(b, 5004, on_receive=lambda p: received.append(p))
        queue = ClientQueue("10.0.0.2", clock=lambda: 0.0)
        for _ in range(5):
            queue.push_udp(udp_entry_packet(400))
        burster = Burster(a)
        sent = burster.burst(queue, slot_for(900))
        sim.run()
        assert sent == 800  # two packets fit
        assert len(received) == 2
        assert received[-1].tos_marked
        assert queue.bytes_pending == 1200

    def test_empty_queue_bursts_nothing(self):
        sim, a, b, _link = wire_pair()
        burster = Burster(a)
        queue = ClientQueue("10.0.0.2", clock=lambda: 0.0)
        assert burster.burst(queue, slot_for(1000)) == 0

    def test_mixed_burst_marks_trailing_tcp(self):
        sim, a, b, sender, receiver = make_established_pair()
        marked_protos = []
        b.taps.append(
            lambda p, i: (
                marked_protos.append(p.proto) if p.tos_marked else None,
                False,
            )[1]
        )
        UdpSocket(b, 5004)
        queue = ClientQueue("10.0.0.2", clock=lambda: 0.0)
        queue.push_udp(udp_entry_packet(300))
        queue.push_tcp(sender, 1000)
        burster = Burster(a)
        burster.burst(queue, slot_for(10_000))
        sim.run(until=5.0)
        assert marked_protos == ["tcp"]

    def test_closed_connection_entries_are_skipped(self):
        sim, a, b, sender, receiver = make_established_pair()
        queue = ClientQueue("10.0.0.2", clock=lambda: 0.0)
        queue.push_tcp(sender, 500)
        sender.abort()
        burster = Burster(a)
        assert burster.burst(queue, slot_for(10_000)) == 0

    def test_controller_cache_and_forget(self):
        sim, a, b, sender, receiver = make_established_pair()
        burster = Burster(a)
        controller = burster.controller_for(sender)
        assert burster.controller_for(sender) is controller
        burster.forget(sender)
        assert burster.controller_for(sender) is not controller
