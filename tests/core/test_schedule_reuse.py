"""Unit tests for the §5 schedule-reuse extension and the min-filter
margin of the adaptive compensator."""

import pytest

from repro.core.bandwidth_model import calibrate
from repro.core.client import PowerAwareClient
from repro.core.delay_comp import AdaptiveCompensator
from repro.core.schedule import Schedule
from repro.core.scheduler import DynamicScheduler
from repro.experiments.scenarios import ScenarioConfig, build_scenario, client_ip
from repro.net.addr import Endpoint
from repro.net.udp import UdpSocket


def reuse_scenario(reuse=True, n_clients=2, seed=21):
    scenario = build_scenario(ScenarioConfig(n_clients=n_clients, seed=seed))
    scheduler = DynamicScheduler(
        scenario.proxy, calibrate(scenario.medium), interval_s=0.1,
        reuse_schedules=reuse,
    )
    scenario.proxy.attach_scheduler(scheduler)
    scenario.proxy.start()
    for handle in scenario.clients:
        handle.daemon = PowerAwareClient(handle.node, handle.wnic)
    return scenario, scheduler


def steady_feed(scenario, index, until, gap=0.03):
    sender = UdpSocket(scenario.video_server, 23000 + index)

    def process():
        while scenario.sim.now < until:
            sender.sendto(700, Endpoint(client_ip(index), 5004))
            yield scenario.sim.timeout(gap)

    scenario.sim.process(process())


@pytest.mark.usefixtures("quiet_testbed")
class TestScheduleReuse:
    def test_steady_load_produces_reuses(self):
        scenario, scheduler = reuse_scenario(reuse=True)
        for index in (0, 1):
            UdpSocket(scenario.clients[index].node, 5004)
            steady_feed(scenario, index, until=6.0)
        scenario.sim.run(until=6.0)
        assert scheduler.planner.schedules_reused > 0
        # reused intervals do not broadcast
        assert scheduler.schedules_sent + scheduler.planner.schedules_reused >= 55

    def test_reuse_disabled_never_reuses(self):
        scenario, scheduler = reuse_scenario(reuse=False)
        UdpSocket(scenario.clients[0].node, 5004)
        steady_feed(scenario, 0, until=4.0)
        scenario.sim.run(until=4.0)
        assert scheduler.planner.schedules_reused == 0

    def test_reuse_saves_schedule_wakes(self):
        def run(reuse):
            scenario, scheduler = reuse_scenario(reuse=reuse, seed=22)
            for index in (0, 1):
                UdpSocket(scenario.clients[index].node, 5004)
                steady_feed(scenario, index, until=6.0)
            scenario.sim.run(until=6.0)
            return sum(
                handle.daemon.schedules_heard for handle in scenario.clients
            )

        assert run(True) < run(False)

    def test_data_still_delivered_during_reuse(self):
        scenario, scheduler = reuse_scenario(reuse=True, seed=23)
        received = []
        UdpSocket(
            scenario.clients[0].node, 5004,
            on_receive=lambda p: received.append(p),
        )
        UdpSocket(scenario.clients[1].node, 5004)
        for index in (0, 1):
            steady_feed(scenario, index, until=6.0)
        scenario.sim.run(until=7.0)
        assert scheduler.planner.schedules_reused > 0
        # ~200 packets fed; nearly all delivered
        assert len(received) > 150


class TestMinFilterMargin:
    def _schedule(self, srp, interval=0.1):
        return Schedule(seq=0, srp=srp, next_srp=srp + interval)

    def test_margin_zero_without_surprises(self):
        comp = AdaptiveCompensator(early_s=0.006)
        arrival = 0.001
        for k in range(10):
            comp.observe_arrival(self._schedule(0.1 * k), 0.1 * k + 0.001)
        assert comp.margin_s == pytest.approx(0.0)

    def test_margin_learns_early_arrivals(self):
        comp = AdaptiveCompensator(early_s=0.006)
        # alternate late (+8ms) and prompt (+0ms) arrivals
        for k in range(10):
            delay = 0.008 if k % 2 == 0 else 0.0
            comp.observe_arrival(self._schedule(0.1 * k), 0.1 * k + delay)
        assert comp.margin_s == pytest.approx(0.008, abs=1e-9)

    def test_margin_capped(self):
        comp = AdaptiveCompensator(early_s=0.006, max_margin_s=0.015)
        comp.observe_arrival(self._schedule(0.0), 0.05)  # huge delay
        comp.observe_arrival(self._schedule(0.1), 0.1)  # prompt
        assert comp.margin_s <= 0.015

    def test_window_zero_disables_margin(self):
        comp = AdaptiveCompensator(early_s=0.006, window=0)
        for k in range(10):
            delay = 0.008 if k % 2 == 0 else 0.0
            comp.observe_arrival(self._schedule(0.1 * k), 0.1 * k + delay)
        assert comp.margin_s == 0.0

    def test_predict_arrival_is_margin_free(self):
        comp = AdaptiveCompensator(early_s=0.006)
        schedule = self._schedule(5.0, interval=0.2)
        assert comp.predict_arrival(schedule, 5.001) == pytest.approx(5.201)
