"""Property-based tests for core proxy data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandwidth_model import LinearCostModel
from repro.core.queues import ClientQueue
from repro.net.addr import Endpoint
from repro.net.packet import Packet


class FakeConn:
    def __init__(self, name):
        self.name = name


def udp_packet(size):
    return Packet(
        "udp", Endpoint("10.0.2.1", 20000), Endpoint("10.0.1.1", 5004),
        payload_size=size,
    )


#: operations: ("udp", size) | ("tcp", conn_index, size) | ("pop", budget)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("udp"), st.integers(1, 2000)),
        st.tuples(st.just("tcp"), st.integers(0, 2), st.integers(1, 5000)),
        st.tuples(st.just("pop"), st.integers(0, 8000)),
    ),
    min_size=1,
    max_size=60,
)


class TestClientQueueProperties:
    @given(ops=operations)
    @settings(max_examples=100, deadline=None)
    def test_byte_conservation(self, ops):
        """pushed == popped + pending at every point."""
        queue = ClientQueue("c", clock=lambda: 0.0)
        conns = [FakeConn(i) for i in range(3)]
        pushed = 0
        popped = 0
        for op in ops:
            if op[0] == "udp":
                queue.push_udp(udp_packet(op[1]))
                pushed += op[1]
            elif op[0] == "tcp":
                queue.push_tcp(conns[op[1]], op[2])
                pushed += op[2]
            else:
                popped += sum(e.nbytes for e in queue.pop_up_to(op[1]))
            assert queue.bytes_pending == pushed - popped
            assert queue.bytes_pending >= 0
            assert queue.peak_bytes >= queue.bytes_pending

    @given(ops=operations)
    @settings(max_examples=60, deadline=None)
    def test_pop_never_exceeds_budget_except_single_oversize(self, ops):
        queue = ClientQueue("c", clock=lambda: 0.0)
        conns = [FakeConn(i) for i in range(3)]
        for op in ops:
            if op[0] == "udp":
                queue.push_udp(udp_packet(op[1]))
            elif op[0] == "tcp":
                queue.push_tcp(conns[op[1]], op[2])
            else:
                budget = op[1]
                taken = queue.pop_up_to(budget)
                total = sum(e.nbytes for e in taken)
                if total > budget:
                    # only lawful when a single oversized udp packet pops
                    assert len(taken) == 1 and taken[0].kind == "udp"

    @given(
        sizes=st.lists(st.integers(1, 3000), min_size=1, max_size=30),
        budget=st.integers(1, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_udp_fifo_order_preserved(self, sizes, budget):
        queue = ClientQueue("c", clock=lambda: 0.0)
        for index, size in enumerate(sizes):
            packet = udp_packet(size)
            packet.meta["index"] = index
            queue.push_udp(packet)
        seen = []
        while not queue.empty:
            for entry in queue.pop_up_to(budget):
                seen.append(entry.packet.meta["index"])
        assert seen == sorted(seen)
        assert len(seen) == len(sizes)


class TestCostModelProperties:
    @given(
        overhead=st.floats(1e-5, 5e-3),
        per_byte=st.floats(1e-8, 1e-5),
        nbytes=st.integers(0, 10_000_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_burst_cost_monotone_in_bytes(self, overhead, per_byte, nbytes):
        model = LinearCostModel(overhead_s=overhead, per_byte_s=per_byte)
        assert model.burst_cost(nbytes) <= model.burst_cost(nbytes + 1460)

    @given(
        overhead=st.floats(1e-5, 5e-3),
        per_byte=st.floats(1e-8, 1e-5),
        duration=st.floats(0.0, 2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_bytes_for_duration_round_trip(self, overhead, per_byte, duration):
        """bytes_for never claims more than fits."""
        model = LinearCostModel(overhead_s=overhead, per_byte_s=per_byte)
        nbytes = model.bytes_for(duration)
        assert model.burst_cost(nbytes) <= duration + 1e-9


class TestMarkingProperties:
    @given(
        hand_sizes=st.lists(st.integers(1, 10_000), min_size=1, max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_exactly_one_marked_byte_per_marked_handoff(self, hand_sizes):
        """Each mark_last hand-off marks the segment carrying its final
        byte — no matter how the stream is segmented."""
        from repro.core.burster import MarkingController
        from repro.net.tcp import TcpConnection, TcpListener
        from tests.net.helpers import wire_pair

        sim, a, b, _ = wire_pair()
        TcpListener(b, 80, lambda conn: None)
        conn = TcpConnection.connect(a, Endpoint("10.0.0.2", 80))
        sim.run(until=1.0)
        conn.cwnd = conn.peer_rwnd  # emit everything immediately
        marked_seqs = []
        b.taps.append(
            lambda p, i: (
                marked_seqs.append((p.seq, p.end_seq)) if p.tos_marked else None,
                False,
            )[1]
        )
        controller = MarkingController(conn)
        expected_marks = []
        for size in hand_sizes:
            mark_byte = conn.app_limit + size - 1
            controller.hand_bytes(size, mark_last=True)
            expected_marks.append(mark_byte)
        sim.run(until=30.0)
        # Every expected mark byte was covered by some marked segment.
        for mark_byte in expected_marks:
            assert any(s <= mark_byte < e for s, e in marked_seqs)
