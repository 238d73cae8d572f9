"""Graceful degradation: fallback, resync and slot reclamation.

The system's answers to the injected faults:

* a client that misses N consecutive schedule broadcasts stops trusting
  its cadence, falls back to always-listen, and resynchronizes on the
  next schedule it hears;
* the scheduler notices a client whose uplink went silent, reclaims its
  burst slots, and restores them when the client is heard again.
"""

from repro.core.bandwidth_model import calibrate
from repro.core.client import PowerAwareClient
from repro.core.delay_comp import AdaptiveCompensator
from repro.core.scheduler import DynamicScheduler
from repro.experiments.scenarios import ScenarioConfig, build_scenario, client_ip
from repro.faults import ChurnEvent, FaultPlan, Window
from repro.net.addr import Endpoint
from repro.net.udp import UdpSocket


def faulty_scenario(plan, n_clients=1, seed=11, interval=0.1):
    scenario = build_scenario(
        ScenarioConfig(n_clients=n_clients, seed=seed, faults=plan)
    )
    scheduler = DynamicScheduler(
        scenario.proxy, calibrate(scenario.medium), interval_s=interval,
        silence_timeout_s=plan.silence_timeout_s,
    )
    scenario.proxy.attach_scheduler(scheduler)
    scenario.proxy.start()
    for handle in scenario.clients:
        handle.daemon = PowerAwareClient(
            handle.node, handle.wnic, AdaptiveCompensator(),
            fallback_after_misses=plan.fallback_after_misses,
            obs=scenario.obs,
        )
    return scenario


def awake_between(wnic, start, end, horizon):
    return sum(
        max(0.0, min(b, end) - max(a, start))
        for a, b in wnic.awake_intervals(horizon)
    )


def uplink_feed(scenario, index, until, gap=0.05):
    sock = UdpSocket(scenario.clients[index].node, 21000 + index)

    def process():
        while scenario.sim.now < until:
            sock.sendto(60, Endpoint(scenario.video_server.ip, 21000 + index))
            yield scenario.sim.timeout(gap)

    scenario.sim.process(process())


class TestScheduleBlackoutFallback:
    PLAN = FaultPlan(
        schedule_blackouts=(Window(2.0, 3.0),), fallback_after_misses=3
    )

    def test_client_falls_back_and_resyncs(self):
        scenario = faulty_scenario(self.PLAN)
        scenario.sim.run(until=6.0)
        daemon = scenario.clients[0].daemon

        # ~10 broadcasts died on the air...
        assert scenario.counters.get("faults.blackout") >= 8
        # ...the client noticed, gave up on its cadence...
        assert daemon.missed_schedules >= 3
        assert daemon.max_consecutive_misses >= 3
        assert daemon.fallbacks >= 1
        # ...and resynchronized once the channel returned.
        assert daemon.resyncs == daemon.fallbacks
        assert not daemon.in_fallback
        assert scenario.obs.trace.count("client.fallback") >= 1
        assert scenario.obs.trace.count("client.resync") >= 1

    def test_client_sleeps_again_after_resync(self):
        scenario = faulty_scenario(self.PLAN)
        scenario.sim.run(until=6.0)
        wnic = scenario.clients[0].wnic
        # always-listen during the blackout tail...
        assert awake_between(wnic, 2.3, 3.0, 6.0) > 0.6
        # ...but back to its schedule-only duty cycle afterwards
        assert awake_between(wnic, 4.0, 6.0, 6.0) < 0.8

    def test_short_blackout_does_not_trigger_fallback(self):
        plan = FaultPlan(
            schedule_blackouts=(Window(2.0, 2.15),), fallback_after_misses=3
        )
        scenario = faulty_scenario(plan)
        scenario.sim.run(until=4.0)
        daemon = scenario.clients[0].daemon
        assert daemon.missed_schedules >= 1
        assert daemon.fallbacks == 0

    def test_fallback_threshold_respected(self):
        """A lower threshold flips the same blackout into fallback."""
        plan = FaultPlan(
            schedule_blackouts=(Window(2.0, 2.35),), fallback_after_misses=2
        )
        scenario = faulty_scenario(plan)
        scenario.sim.run(until=4.0)
        assert scenario.clients[0].daemon.fallbacks >= 1


class TestSlotReclamation:
    PLAN = FaultPlan(
        churn=(ChurnEvent(0, leave_at=2.0, rejoin_at=4.0),),
        silence_timeout_s=0.5,
    )

    def test_silent_client_slots_reclaimed_and_restored(self):
        scenario = faulty_scenario(self.PLAN, n_clients=2)
        for index in (0, 1):
            uplink_feed(scenario, index, until=6.0)
        scenario.sim.run(until=6.0)
        scheduler = scenario.proxy.scheduler

        # client 0 went quiet mid-run: its slot was reclaimed...
        assert scheduler.planner.slots_reclaimed >= 1
        # ...and handed back once its uplink was heard again.
        assert scheduler.planner.slots_restored >= 1
        assert scenario.obs.trace.count("scheduler.reclaim") >= 1
        assert scenario.obs.trace.count("scheduler.restore") >= 1
        # the departed radio showed up in the fault accounting
        assert scenario.counters.get("faults.churn") > 0
        assert scenario.counters.get("faults.churn_miss") > 0

    def test_still_heard_client_keeps_slots(self):
        scenario = faulty_scenario(self.PLAN, n_clients=2)
        for index in (0, 1):
            uplink_feed(scenario, index, until=6.0)
        scenario.sim.run(until=6.0)
        # client 1 never churned, so only client 0 was ever reclaimed
        reclaims = list(scenario.obs.trace.query("scheduler.reclaim"))
        assert {r.fields["client"] for r in reclaims} == {client_ip(0)}

    def test_reclamation_disabled_by_default(self):
        plan = FaultPlan(churn=(ChurnEvent(0, leave_at=2.0, rejoin_at=4.0),))
        scenario = faulty_scenario(plan, n_clients=1)
        uplink_feed(scenario, 0, until=6.0)
        scenario.sim.run(until=6.0)
        assert scenario.proxy.scheduler.planner.slots_reclaimed == 0

    def test_never_heard_client_not_judged_silent(self):
        """Pure receivers (no uplink ever) must keep their slots."""
        plan = FaultPlan(silence_timeout_s=0.5)
        scenario = faulty_scenario(plan, n_clients=1)
        scenario.sim.run(until=4.0)
        assert scenario.proxy.scheduler.planner.slots_reclaimed == 0


class TestChurnedClientRecovers:
    def test_rejoined_client_hears_schedules_again(self):
        plan = FaultPlan(
            churn=(ChurnEvent(0, leave_at=1.5, rejoin_at=3.0),),
            fallback_after_misses=3,
        )
        scenario = faulty_scenario(plan)
        scenario.sim.run(until=2.9)
        daemon = scenario.clients[0].daemon
        heard_while_gone = daemon.schedules_heard
        assert daemon.fallbacks >= 1  # went dark long enough to fall back
        scenario.sim.run(until=5.0)
        assert daemon.schedules_heard > heard_while_gone
        assert daemon.resyncs >= 1
        assert not daemon.in_fallback
