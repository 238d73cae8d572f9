"""Failure injection and dynamic-membership tests for the core system."""

from repro.core.bandwidth_model import calibrate
from repro.core.client import PowerAwareClient
from repro.core.delay_comp import AdaptiveCompensator
from repro.core.scheduler import DynamicScheduler
from repro.experiments.scenarios import (
    ScenarioConfig,
    build_scenario,
    client_ip,
)
from repro.net.addr import Endpoint
from repro.net.udp import UdpSocket


def scheduled_scenario(n_clients=2, seed=11, interval=0.1, **overrides):
    scenario = build_scenario(
        ScenarioConfig(n_clients=n_clients, seed=seed, **overrides)
    )
    scheduler = DynamicScheduler(
        scenario.proxy, calibrate(scenario.medium), interval_s=interval
    )
    scenario.proxy.attach_scheduler(scheduler)
    scenario.proxy.start()
    for handle in scenario.clients:
        handle.daemon = PowerAwareClient(
            handle.node, handle.wnic, AdaptiveCompensator()
        )
    return scenario


def awake_between(wnic, start, end, horizon):
    """Awake seconds inside [start, end), from the full transition log."""
    return sum(
        max(0.0, min(b, end) - max(a, start))
        for a, b in wnic.awake_intervals(horizon)
    )


def feed(scenario, index, until, gap=0.05, size=700):
    sender = UdpSocket(
        scenario.video_server, 21000 + index
    )

    def process():
        while scenario.sim.now < until:
            sender.sendto(size, Endpoint(client_ip(index), 5004))
            yield scenario.sim.timeout(gap)

    scenario.sim.process(process())


class TestChannelOutage:
    def test_clients_recover_from_total_outage(self):
        """A one-second RF blackout: all schedules and data lost; the
        clients must detect the misses, stay awake, and resynchronize
        once the channel returns."""
        scenario = scheduled_scenario()
        for index in (0, 1):
            UdpSocket(scenario.clients[index].node, 5004)
            feed(scenario, index, until=10.0)
        outage = {"active": False}
        scenario.medium.drop = lambda p: outage["active"]
        scenario.sim.run(until=3.0)
        outage["active"] = True
        scenario.sim.run(until=4.0)
        outage["active"] = False
        scenario.sim.run(until=10.0)
        for handle in scenario.clients:
            daemon = handle.daemon
            assert daemon.missed_schedules >= 1  # outage was noticed
            # ...and the client kept hearing schedules afterwards.
            assert daemon.schedules_heard > 50
            # asleep again by the end (resynchronized)
            assert awake_between(handle.wnic, 6.0, 10.0, 10.0) < 2.0

    def test_loss_burst_does_not_wedge_scheduler(self):
        scenario = scheduled_scenario()
        UdpSocket(scenario.clients[0].node, 5004)
        feed(scenario, 0, until=6.0)
        # 30% random loss for the whole run
        rng = scenario.streams.get("chaos")
        scenario.medium.drop = lambda p: bool(rng.random() < 0.3)
        scenario.sim.run(until=6.0)
        assert scenario.proxy.scheduler.schedules_sent > 40


class TestDynamicMembership:
    def test_client_joins_schedule_when_traffic_starts(self):
        """Paper Figure 2: client 4 has traffic during interval 1 and
        joins the schedule for interval 2."""
        scenario = scheduled_scenario(n_clients=3)
        for index in range(3):
            UdpSocket(scenario.clients[index].node, 5004)
        feed(scenario, 0, until=8.0)
        feed(scenario, 1, until=8.0)
        scenario.sim.run(until=3.0)
        daemon2 = scenario.clients[2].daemon
        assert daemon2.bursts_received == 0

        # Client 2's stream starts mid-run...
        feed(scenario, 2, until=8.0)
        scenario.sim.run(until=8.0)
        # ...and it starts receiving scheduled bursts.
        assert daemon2.bursts_received > 20

    def test_client_leaves_schedule_when_traffic_stops(self):
        scenario = scheduled_scenario(n_clients=2)
        for index in (0, 1):
            UdpSocket(scenario.clients[index].node, 5004)
        feed(scenario, 0, until=10.0)
        feed(scenario, 1, until=3.0)  # stops early
        scenario.sim.run(until=10.0)
        daemon1 = scenario.clients[1].daemon
        bursts_by_4s = None
        # after its stream stops, the client gets no more bursts but
        # keeps hearing schedules
        assert daemon1.schedules_heard > 80
        idle_tail = awake_between(scenario.clients[1].wnic, 5.0, 10.0, 10.0)
        busy_tail = awake_between(scenario.clients[0].wnic, 5.0, 10.0, 10.0)
        assert idle_tail < busy_tail


class TestSchedulerEdgeCases:
    def test_idle_proxy_keeps_broadcasting(self):
        scenario = scheduled_scenario(n_clients=1)
        scenario.sim.run(until=2.0)
        assert scenario.proxy.scheduler.schedules_sent >= 19

    def test_many_tiny_flows_one_client(self):
        scenario = scheduled_scenario(n_clients=1)
        UdpSocket(scenario.clients[0].node, 5004)
        sender = UdpSocket(scenario.video_server, 22000)

        def bursty():
            rng = scenario.streams.get("bursty")
            while scenario.sim.now < 5.0:
                for _ in range(int(rng.integers(1, 20))):
                    sender.sendto(int(rng.integers(40, 1400)),
                                  Endpoint(client_ip(0), 5004))
                yield scenario.sim.timeout(float(rng.uniform(0.01, 0.3)))

        scenario.sim.process(bursty())
        scenario.sim.run(until=6.0)
        queue = scenario.proxy.queue_for(client_ip(0))
        assert queue.bytes_pending == 0  # everything drained
