"""Unit tests for addresses and the packet model."""

import pytest

from repro.errors import AddressError, NetworkError
from repro.net.addr import BROADCAST_IP, Endpoint
from repro.net.packet import (
    IP_HEADER,
    LINK_HEADER,
    TCP_HEADER,
    UDP_HEADER,
    Packet,
    TcpFlags,
)


def make_packet(**overrides):
    defaults = dict(
        proto="udp",
        src=Endpoint("10.0.0.1", 5000),
        dst=Endpoint("10.0.0.2", 6000),
        payload_size=100,
    )
    defaults.update(overrides)
    return Packet(**defaults)


class TestEndpoint:
    def test_requires_nonempty_ip(self):
        with pytest.raises(AddressError):
            Endpoint("", 80)

    @pytest.mark.parametrize("port", [0, -1, 65536])
    def test_rejects_bad_ports(self, port):
        with pytest.raises(AddressError):
            Endpoint("10.0.0.1", port)

    def test_equality_and_hash(self):
        assert Endpoint("10.0.0.1", 80) == Endpoint("10.0.0.1", 80)
        assert len({Endpoint("10.0.0.1", 80), Endpoint("10.0.0.1", 80)}) == 1


class TestPacket:
    def test_rejects_unknown_protocol(self):
        with pytest.raises(NetworkError):
            make_packet(proto="icmp")

    def test_rejects_negative_payload(self):
        with pytest.raises(NetworkError):
            make_packet(payload_size=-1)

    def test_udp_sizes(self):
        packet = make_packet(payload_size=100)
        assert packet.ip_size == IP_HEADER + UDP_HEADER + 100
        assert packet.wire_size == LINK_HEADER + packet.ip_size

    def test_tcp_sizes(self):
        packet = make_packet(proto="tcp", payload_size=100)
        assert packet.ip_size == IP_HEADER + TCP_HEADER + 100

    def test_broadcast_detection(self):
        packet = make_packet(dst=Endpoint(BROADCAST_IP, 7000))
        assert packet.is_broadcast
        assert not make_packet().is_broadcast

    def test_end_seq(self):
        packet = make_packet(proto="tcp", seq=1000, payload_size=500)
        assert packet.end_seq == 1500

    def test_packet_ids_unique(self):
        assert make_packet().packet_id != make_packet().packet_id

    def test_tcp_flags_combine(self):
        flags = TcpFlags.SYN | TcpFlags.ACK
        assert TcpFlags.SYN in flags
        assert TcpFlags.FIN not in flags
