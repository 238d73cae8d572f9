"""Unit tests for the static TDMA schedule."""

import pytest

from repro.core.bandwidth_model import calibrate
from repro.core.static_schedule import (
    StaticClient,
    StaticScheduler,
    build_layout,
)
from repro.errors import SchedulingError
from repro.experiments.scenarios import (
    ScenarioConfig,
    build_scenario,
    client_ip,
)
from repro.net.addr import Endpoint
from repro.net.udp import UdpSocket


class TestLayout:
    def test_equal_shares(self):
        layout = build_layout([client_ip(i) for i in range(4)], interval_s=0.1)
        durations = {slot.duration for slot in layout.slots}
        assert len(durations) == 1  # all equal
        assert layout.slots[-1].offset + layout.slots[-1].duration <= 0.1

    def test_tcp_slot_carved_from_head(self):
        layout = build_layout(
            [client_ip(0)], interval_s=0.5, tcp_weight=0.33,
            tcp_clients=[client_ip(1)],
        )
        assert layout.tcp_slot_s == pytest.approx(0.165)
        assert layout.slots[0].offset > layout.tcp_slot_s

    def test_bad_tcp_weight_rejected(self):
        with pytest.raises(SchedulingError):
            build_layout([client_ip(0)], interval_s=0.5, tcp_weight=1.0)

    def test_no_clients_rejected(self):
        with pytest.raises(SchedulingError):
            build_layout([], interval_s=0.5)

    def test_interval_too_small_rejected(self):
        with pytest.raises(SchedulingError):
            build_layout([client_ip(i) for i in range(50)], interval_s=0.01)

    def test_slot_for(self):
        layout = build_layout([client_ip(0)], interval_s=0.1)
        assert layout.slot_for(client_ip(0)) is not None
        assert layout.slot_for("nope") is None


def quiet_scenario(n_clients):
    """A testbed for tests run under the ``quiet_testbed`` fixture."""
    return build_scenario(ScenarioConfig(n_clients=n_clients, seed=3))


def static_scenario(n_clients=2, interval=0.1, tcp_weight=0.0, tcp_ips=()):
    scenario = quiet_scenario(n_clients)
    udp_ips = [
        client_ip(i) for i in range(n_clients) if client_ip(i) not in tcp_ips
    ]
    layout = build_layout(
        udp_ips, interval_s=interval, tcp_weight=tcp_weight,
        tcp_clients=tcp_ips,
    )
    scheduler = StaticScheduler(
        scenario.proxy, calibrate(scenario.medium), layout
    )
    scenario.proxy.attach_scheduler(scheduler)
    scenario.proxy.start()
    for handle in scenario.clients:
        handle.daemon = StaticClient(handle.node, handle.wnic)
    return scenario


@pytest.mark.usefixtures("quiet_testbed")
class TestStaticExecution:
    def test_udp_delivered_in_fixed_slots(self):
        scenario = static_scenario(n_clients=2, interval=0.1)
        received = {0: [], 1: []}
        for index in (0, 1):
            UdpSocket(
                scenario.clients[index].node, 5004,
                on_receive=lambda p, i=index: received[i].append(
                    scenario.sim.now
                ),
            )
        sender = UdpSocket(scenario.video_server, 20000)

        def feed():
            while scenario.sim.now < 3.0:
                for index in (0, 1):
                    sender.sendto(700, Endpoint(client_ip(index), 5004))
                yield scenario.sim.timeout(0.05)

        scenario.sim.process(feed())
        scenario.sim.run(until=4.0)
        assert len(received[0]) > 20
        assert len(received[1]) > 20

    def test_clients_sleep_most_of_the_time(self):
        scenario = static_scenario(n_clients=2, interval=0.1)
        UdpSocket(scenario.clients[0].node, 5004)
        UdpSocket(scenario.clients[1].node, 5004)
        sender = UdpSocket(scenario.video_server, 20000)

        def feed():
            while scenario.sim.now < 4.0:
                sender.sendto(700, Endpoint(client_ip(0), 5004))
                yield scenario.sim.timeout(0.1)

        scenario.sim.process(feed())
        scenario.sim.run(until=5.0)
        for handle in scenario.clients:
            # no schedule wake-ups at all -> low duty cycle
            assert handle.wnic.awake_time(5.0) < 1.8

    def test_no_schedule_broadcasts_after_start(self):
        scenario = static_scenario(n_clients=1, interval=0.1)
        scenario.sim.run(until=3.0)
        broadcasts = [
            f for f in scenario.monitor.frames if f.broadcast
        ]
        # exactly the two layout announcements, nothing per interval
        assert len(broadcasts) == 2

    def test_static_beats_dynamic_for_identical_streams(self):
        """Paper §4.3: static saves more for identical-fidelity loads."""
        from repro.core.client import PowerAwareClient
        from repro.core.scheduler import DynamicScheduler

        def run(kind):
            scenario = quiet_scenario(2)
            model = calibrate(scenario.medium)
            if kind == "static":
                layout = build_layout(
                    [client_ip(0), client_ip(1)], interval_s=0.1
                )
                scenario.proxy.attach_scheduler(
                    StaticScheduler(scenario.proxy, model, layout)
                )
            else:
                scenario.proxy.attach_scheduler(
                    DynamicScheduler(scenario.proxy, model, interval_s=0.1)
                )
            scenario.proxy.start()
            for handle in scenario.clients:
                if kind == "static":
                    handle.daemon = StaticClient(handle.node, handle.wnic)
                else:
                    handle.daemon = PowerAwareClient(handle.node, handle.wnic)
                UdpSocket(handle.node, 5004)
            sender = UdpSocket(scenario.video_server, 20000)

            def feed():
                # Identical steady streams with data in *every* interval,
                # matching the paper's identical-fidelity setup.
                while scenario.sim.now < 6.0:
                    for i in (0, 1):
                        sender.sendto(500, Endpoint(client_ip(i), 5004))
                    yield scenario.sim.timeout(0.04)

            scenario.sim.process(feed())
            scenario.sim.run(until=6.0)
            return sum(
                handle.wnic.awake_time(6.0) for handle in scenario.clients
            )

        assert run("static") < run("dynamic")


class _WindowLimitedConnection:
    """A client-side TCP connection with ``room`` bytes of send window."""

    state = "ESTABLISHED"
    fin_offset = None
    bytes_in_flight = 0
    unsent_bytes = 0
    snd_nxt = snd_una = 0

    def __init__(self, room):
        self.send_window = room
        self.app_limit = 0
        self.on_segment_tx = None

    def send(self, nbytes):
        self.app_limit += nbytes
        self.unsent_bytes += nbytes


class TestStaticTcpSlot:
    def test_window_leftovers_keep_their_stamp_and_fifo_order(self):
        scenario = build_scenario(ScenarioConfig(n_clients=2, seed=3))
        web = client_ip(1)
        layout = build_layout(
            [client_ip(0)], interval_s=0.5, tcp_weight=0.1, tcp_clients=[web]
        )
        scheduler = StaticScheduler(
            scenario.proxy, calibrate(scenario.medium), layout
        )
        queue = scenario.proxy.queue_for(web)
        first = _WindowLimitedConnection(room=1000)
        second = _WindowLimitedConnection(room=1000)
        scenario.sim.run(until=1.0)
        queue.push_tcp(first, 3000)
        scenario.sim.run(until=2.0)
        queue.push_tcp(second, 3000)

        next(scheduler._serve_interval(scenario.sim.now))

        assert (first.app_limit, second.app_limit) == (1000, 1000)
        leftovers = queue.pop_up_to(10_000, kind="tcp")
        assert [
            (entry.connection, entry.nbytes, entry.enqueued_at)
            for entry in leftovers
        ] == [(first, 2000, 1.0), (second, 2000, 2.0)]
