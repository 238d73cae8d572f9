"""Unit tests for the power-aware client daemon."""

import pytest

from repro.core.bandwidth_model import calibrate
from repro.core.client import PowerAwareClient
from repro.core.delay_comp import AdaptiveCompensator
from repro.core.scheduler import DynamicScheduler
from repro.errors import SchedulingError
from repro.experiments.scenarios import (
    ScenarioConfig,
    VIDEO_SERVER_IP,
    build_scenario,
    client_ip,
)
from repro.net.addr import Endpoint
from repro.net.udp import UdpSocket
from repro.sim import Simulator
from repro.wnic import Wnic


#: Every scenario here runs without AP jitter spikes or channel loss
#: (deterministic-ish timing).
pytestmark = pytest.mark.usefixtures("quiet_testbed")


def quiet_scenario(n_clients=1, seed=1, **scenario_overrides):
    return build_scenario(
        ScenarioConfig(n_clients=n_clients, seed=seed, **scenario_overrides)
    )


def with_dynamic_scheduler(scenario, interval=0.2, **client_kwargs):
    scheduler = DynamicScheduler(
        scenario.proxy, calibrate(scenario.medium), interval_s=interval
    )
    scenario.proxy.attach_scheduler(scheduler)
    scenario.proxy.start()
    daemons = []
    for handle in scenario.clients:
        daemon = PowerAwareClient(
            handle.node, handle.wnic,
            AdaptiveCompensator(early_s=client_kwargs.pop("early_s", 0.006)),
            **client_kwargs,
        )
        handle.daemon = daemon
        daemons.append(daemon)
    return daemons


def test_requires_known_interface():
    sim = Simulator()
    from repro.net.node import Node

    node = Node(sim, "x", "10.0.0.1")
    with pytest.raises(SchedulingError):
        PowerAwareClient(node, Wnic(sim, "x"))


def test_client_hears_schedules_and_sleeps_between():
    scenario = quiet_scenario()
    (daemon,) = with_dynamic_scheduler(scenario, interval=0.2)
    scenario.sim.run(until=5.0)
    assert daemon.schedules_heard >= 20
    assert daemon.missed_schedules == 0
    handle = scenario.clients[0]
    awake = handle.wnic.awake_time(5.0)
    assert awake < 1.5  # mostly asleep with no traffic


def test_client_receives_burst_and_returns_to_sleep():
    scenario = quiet_scenario()
    (daemon,) = with_dynamic_scheduler(scenario, interval=0.2)
    received = []
    UdpSocket(
        scenario.clients[0].node, 5004, on_receive=lambda p: received.append(p)
    )
    sender = UdpSocket(scenario.video_server, 20000)

    def feed():
        while scenario.sim.now < 4.0:
            sender.sendto(700, Endpoint(client_ip(0), 5004))
            yield scenario.sim.timeout(0.1)

    scenario.sim.process(feed())
    scenario.sim.run(until=5.0)
    assert len(received) >= 30
    assert daemon.bursts_received >= 15
    assert daemon.marks_missed <= 2
    # The card sleeps most of the time despite steady traffic.
    assert scenario.clients[0].wnic.awake_time(5.0) < 2.0


def test_no_slot_means_no_burst_wake():
    """A client with no traffic only wakes for schedules."""
    scenario = quiet_scenario(n_clients=2)
    daemons = with_dynamic_scheduler(scenario, interval=0.2)
    # only client 0 gets traffic
    UdpSocket(scenario.clients[0].node, 5004)
    UdpSocket(scenario.clients[1].node, 5004)
    sender = UdpSocket(scenario.video_server, 20000)

    def feed():
        while scenario.sim.now < 4.0:
            sender.sendto(700, Endpoint(client_ip(0), 5004))
            yield scenario.sim.timeout(0.1)

    scenario.sim.process(feed())
    scenario.sim.run(until=5.0)
    assert daemons[1].bursts_received == 0
    assert daemons[1].schedules_heard > 15
    idle_awake = scenario.clients[1].wnic.awake_time(5.0)
    busy_awake = scenario.clients[0].wnic.awake_time(5.0)
    assert idle_awake < busy_awake


def test_early_wait_accumulates():
    scenario = quiet_scenario()
    (daemon,) = with_dynamic_scheduler(scenario, interval=0.2, early_s=0.01)
    scenario.sim.run(until=3.0)
    # Waking 10 ms early for every schedule must show up as early wait.
    assert daemon.early_wait_s > 0.05


def test_missed_schedule_keeps_client_awake_until_next():
    """Force a miss by sending one schedule far off its cadence."""
    scenario = quiet_scenario()
    (daemon,) = with_dynamic_scheduler(scenario, interval=0.2)
    sim = scenario.sim
    sim.run(until=2.05)
    heard_before = daemon.schedules_heard
    # Sabotage: put the client to sleep right where the next schedule
    # would arrive by delaying it artificially — we emulate by pausing
    # the proxy's scheduler process via a large AP outage: drop the
    # next schedule broadcast on the medium.
    drops = {"armed": True}

    def drop_schedule(packet):
        if drops["armed"] and packet.is_broadcast:
            drops["armed"] = False
            return True
        return False

    scenario.medium.drop = drop_schedule
    sim.run(until=3.0)
    assert daemon.missed_schedules >= 1
    assert daemon.miss_recovery_s > 0.1  # stayed awake till the next one
    assert daemon.schedules_heard > heard_before


def test_counters_property_shape():
    scenario = quiet_scenario()
    (daemon,) = with_dynamic_scheduler(scenario)
    scenario.sim.run(until=1.0)
    counters = daemon.counters
    assert set(counters) == {
        "missed_schedules", "schedules_heard", "early_wait_s",
        "miss_recovery_s", "fallbacks", "resyncs",
        "max_consecutive_misses",
    }


class RecordingCompensator(AdaptiveCompensator):
    """An adaptive compensator that keeps every schedule it observes."""

    def __init__(self):
        super().__init__()
        self.heard = []

    def observe_arrival(self, schedule, arrival):
        self.heard.append(schedule)
        super().observe_arrival(schedule, arrival)


def test_clients_hear_the_object_the_proxy_broadcast():
    """The schedule rides on the packet as one frozen object: no client
    rebuilds its own copy."""
    scenario = quiet_scenario(n_clients=3)
    scheduler = DynamicScheduler(
        scenario.proxy, calibrate(scenario.medium), interval_s=0.2
    )
    scenario.proxy.attach_scheduler(scheduler)
    broadcast = {}
    send = scenario.proxy.broadcast_schedule

    def recording_broadcast(schedule):
        broadcast[schedule.seq] = schedule
        send(schedule)

    scenario.proxy.broadcast_schedule = recording_broadcast
    scenario.proxy.start()
    compensators = []
    for handle in scenario.clients:
        compensators.append(RecordingCompensator())
        handle.daemon = PowerAwareClient(
            handle.node, handle.wnic, compensators[-1]
        )
    scenario.sim.run(until=3.0)
    assert len(broadcast) >= 10
    for compensator in compensators:
        assert len(compensator.heard) >= 10
        for schedule in compensator.heard:
            assert schedule is broadcast[schedule.seq]
