"""Unit tests for the delayed-ACK policy."""

from repro.net.addr import Endpoint
from repro.net.packet import MSS, TcpFlags
from repro.net.tcp import DELAYED_ACK_S, TcpConnection, TcpListener

from tests.net.helpers import wire_pair


def count_pure_acks(taps_log):
    return sum(
        1 for p in taps_log
        if p.proto == "tcp" and p.payload_size == 0
        and TcpFlags.ACK in p.flags and TcpFlags.SYN not in p.flags
        and TcpFlags.FIN not in p.flags
    )


def make_pair(drop=None):
    sim, a, b, _ = wire_pair(drop=drop)
    accepted = []
    TcpListener(b, 80, lambda conn: accepted.append(conn))
    client = TcpConnection.connect(a, Endpoint("10.0.0.2", 80))
    sim.run(until=1.0)
    return sim, a, b, client, accepted[0]


def test_roughly_one_ack_per_two_segments():
    sim, a, b, client, server = make_pair()
    acks_at_b = []
    b.taps.append(lambda p, i: (acks_at_b.append(p), False)[1])
    client.cwnd = client.peer_rwnd
    client.send(MSS * 10)  # exactly 10 segments
    sim.run(until=5.0)
    pure_acks = count_pure_acks(acks_at_b)
    assert pure_acks <= 6  # ~5 with delayed ACKs; 10 without

def test_single_segment_acked_after_delay():
    sim, a, b, client, server = make_pair()
    ack_times = []
    # ACKs from the receiver (b) arrive back at the sender's node (a).
    a.taps.append(
        lambda p, i: (
            ack_times.append(sim.now)
            if p.payload_size == 0 and TcpFlags.ACK in p.flags
            else None,
            False,
        )[1]
    )
    start = sim.now
    client.send(500)  # one lone segment
    sim.run(until=start + 1.0)
    assert server.bytes_delivered == 500
    # The ACK came via the delayed-ACK timer, not immediately.
    lone_acks = [t for t in ack_times if t > start]
    assert lone_acks
    assert lone_acks[0] - start >= DELAYED_ACK_S * 0.9


def test_out_of_order_acks_immediately():
    """A gap must produce immediate dup-ACKs for fast retransmit."""
    state = {"dropped": False}

    def drop_one(packet):
        if (
            packet.payload_size > 0 and packet.seq == 1
            and not state["dropped"]
        ):
            state["dropped"] = True
            return True
        return False

    sim, a, b, client, server = make_pair(drop=drop_one)
    client.cwnd = client.peer_rwnd
    client.send(MSS * 6)
    sim.run(until=10.0)
    assert state["dropped"]
    assert server.bytes_delivered == MSS * 6  # recovered


def test_marked_segment_flushes_ack():
    from repro.core.burster import MarkingController

    sim, a, b, client, server = make_pair()
    ack_times = []
    a.taps.append(
        lambda p, i: (
            ack_times.append(sim.now)
            if p.proto == "tcp" and p.payload_size == 0
            else None,
            False,
        )[1]
    )
    client.cwnd = client.peer_rwnd
    controller = MarkingController(client)
    start = sim.now
    controller.hand_bytes(500, mark_last=True)  # one marked segment
    sim.run(until=start + 0.02)  # well under the delack timer
    # The marked packet was ACKed immediately (receiver about to sleep).
    assert any(t - start < 0.02 for t in ack_times)
