"""Unit tests for the transparent proxy: interception, splitting, spoofing."""

import pytest

from repro.core.bandwidth_model import calibrate
from repro.core.scheduler import DynamicScheduler
from repro.errors import ConfigurationError
from repro.experiments.scenarios import (
    ScenarioConfig,
    VIDEO_SERVER_IP,
    WEB_SERVER_IP,
    build_scenario,
    client_ip,
)
from repro.net.addr import Endpoint
from repro.net.udp import UdpSocket
from repro.net.tcp import TcpConnection
from repro.workloads.web import HTTP_PORT, WebServerApp


def scheduled_scenario(n_clients=2, seed=1, interval=0.25):
    scenario = build_scenario(ScenarioConfig(n_clients=n_clients, seed=seed))
    scheduler = DynamicScheduler(
        scenario.proxy, calibrate(scenario.medium), interval_s=interval
    )
    scenario.proxy.attach_scheduler(scheduler)
    scenario.proxy.start()
    return scenario


class TestConfiguration:
    def test_needs_clients(self):
        from repro.core.proxy import TransparentProxy
        from repro.sim import Simulator

        with pytest.raises(ConfigurationError):
            TransparentProxy(Simulator(), "p", "10.0.0.1", set())

    def test_start_requires_scheduler(self):
        scenario = build_scenario(ScenarioConfig(n_clients=1))
        with pytest.raises(ConfigurationError):
            scenario.proxy.start()

    def test_double_scheduler_rejected(self):
        scenario = scheduled_scenario()
        with pytest.raises(ConfigurationError):
            scenario.proxy.attach_scheduler(object())


class TestUdpInterception:
    def test_downlink_udp_is_buffered_not_forwarded(self):
        scenario = build_scenario(ScenarioConfig(n_clients=1, seed=1))
        received = []
        UdpSocket(
            scenario.clients[0].node, 5004,
            on_receive=lambda p: received.append(p),
        )
        UdpSocket(scenario.video_server, 20000).sendto(
            700, Endpoint(client_ip(0), 5004)
        )
        scenario.sim.run(until=1.0)
        assert received == []  # no scheduler running: stays buffered
        assert scenario.proxy.queue_for(client_ip(0)).bytes_pending == 700
        assert scenario.proxy.udp_packets_intercepted == 1

    def test_buffered_udp_is_burst_with_server_source(self):
        scenario = scheduled_scenario(n_clients=1)
        received = []
        UdpSocket(
            scenario.clients[0].node, 5004,
            on_receive=lambda p: received.append(p),
        )
        UdpSocket(scenario.video_server, 20000).sendto(
            700, Endpoint(client_ip(0), 5004)
        )
        scenario.sim.run(until=1.0)
        assert len(received) == 1
        # Transparency: the client sees the server's address.
        assert received[0].src.ip == VIDEO_SERVER_IP
        assert received[0].tos_marked  # single packet = last of burst

    def test_uplink_udp_passes_through(self):
        scenario = build_scenario(ScenarioConfig(n_clients=1, seed=1))
        received = []
        UdpSocket(
            scenario.video_server, 7000, on_receive=lambda p: received.append(p)
        )
        UdpSocket(scenario.clients[0].node, 6000).sendto(
            50, Endpoint(VIDEO_SERVER_IP, 7000)
        )
        scenario.sim.run(until=1.0)
        assert len(received) == 1


class TestTcpSplitting:
    def test_split_creates_two_spoofed_connections(self):
        scenario = scheduled_scenario(n_clients=1)
        WebServerApp(scenario.web_server)
        client_node = scenario.clients[0].node
        conn = TcpConnection.connect(client_node, Endpoint(WEB_SERVER_IP, HTTP_PORT))
        scenario.sim.run(until=1.0)
        assert conn.state == "ESTABLISHED"
        assert scenario.proxy.tcp_connections_split == 1
        proxy_keys = set(scenario.proxy.tcp_connections)
        client_ep = conn.local
        server_ep = Endpoint(WEB_SERVER_IP, HTTP_PORT)
        assert (server_ep, client_ep) in proxy_keys  # client side
        assert (client_ep, server_ep) in proxy_keys  # server side

    def test_server_sees_client_address(self):
        scenario = scheduled_scenario(n_clients=1)
        sources = []
        scenario.web_server.taps.append(
            lambda p, i: (sources.append(p.src.ip), False)[1]
        )
        WebServerApp(scenario.web_server)
        conn = TcpConnection.connect(
            scenario.clients[0].node, Endpoint(WEB_SERVER_IP, HTTP_PORT)
        )
        scenario.sim.run(until=1.0)
        assert set(sources) == {client_ip(0)}

    def test_wireless_side_never_shows_proxy_address(self):
        """The transparency claim, checked against the sniffer capture."""
        scenario = scheduled_scenario(n_clients=1)
        WebServerApp(scenario.web_server)
        client_node = scenario.clients[0].node
        conn = TcpConnection.connect(client_node, Endpoint(WEB_SERVER_IP, HTTP_PORT))
        conn.on_established = lambda c: conn.send(350)
        scenario.sim.run(until=2.0)
        proxy_ip = scenario.proxy.ip
        for frame in scenario.monitor.frames:
            if frame.proto == "tcp":
                assert proxy_ip not in (frame.src_ip, frame.dst_ip)

    def test_server_data_buffered_then_burst(self):
        scenario = scheduled_scenario(n_clients=1)
        WebServerApp(scenario.web_server)
        client_node = scenario.clients[0].node
        delivered = []
        conn = TcpConnection.connect(
            client_node,
            Endpoint(WEB_SERVER_IP, HTTP_PORT),
            on_data=lambda n, p: delivered.append(n),
        )

        def on_established(c):
            conn.on_segment_tx = lambda p: p.meta.setdefault("object_size", 9000)
            conn.send(350)

        conn.on_established = on_established
        scenario.sim.run(until=3.0)
        assert sum(delivered) == 9000

    def test_duplicate_syn_does_not_create_second_split(self):
        scenario = scheduled_scenario(n_clients=1)
        WebServerApp(scenario.web_server)
        client_node = scenario.clients[0].node
        conn = TcpConnection.connect(client_node, Endpoint(WEB_SERVER_IP, HTTP_PORT))
        scenario.sim.run(until=0.01)
        # Simulate a retransmitted SYN reaching the proxy again.
        from repro.net.packet import Packet, TcpFlags

        dup = Packet(
            "tcp", conn.local, conn.remote, flags=TcpFlags.SYN,
        )
        scenario.proxy._intercept_tcp(dup, scenario.proxy.air)
        scenario.sim.run(until=1.0)
        assert scenario.proxy.tcp_connections_split == 1


class TestMemoryClaim:
    def test_peak_buffer_accounting(self):
        scenario = build_scenario(ScenarioConfig(n_clients=2, seed=1))
        sender = UdpSocket(scenario.video_server, 20000)
        for i in range(2):
            for _ in range(10):
                sender.sendto(700, Endpoint(client_ip(i), 5004))
        scenario.sim.run(until=1.0)
        assert sum(
            queue.bytes_pending for _, queue in scenario.proxy.iter_queues()
        ) == 14_000
        assert scenario.proxy.peak_buffered_bytes == 14_000
