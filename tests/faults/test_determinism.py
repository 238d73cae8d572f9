"""Property: a run is a pure function of (config, seed).

Two fresh simulators built from the same configuration must produce
byte-identical event traces — with and without a fault plan. This is
the contract everything else in :mod:`repro.faults` leans on: a fault
scenario can be replayed exactly from its stored plan and seed.
"""

import json

from repro.core.bandwidth_model import calibrate
from repro.core.client import PowerAwareClient
from repro.core.delay_comp import AdaptiveCompensator
from repro.core.scheduler import DynamicScheduler
from repro.experiments.scenarios import ScenarioConfig, build_scenario, client_ip
from repro.faults import ChurnEvent, FaultPlan, GilbertElliottSpec, Window
from repro.net.addr import Endpoint
from repro.net.udp import UdpSocket

FULL_PLAN = FaultPlan(
    loss_rate=0.02,
    burst_loss=GilbertElliottSpec(0.05, 0.4),
    duplicate_rate=0.02,
    reorder_rate=0.02,
    corrupt_rate=0.01,
    outages=(Window(2.6, 2.8),),
    schedule_blackouts=(Window(1.0, 1.4),),
    churn=(ChurnEvent(1, leave_at=1.5, rejoin_at=2.5),),
    fallback_after_misses=2,
    silence_timeout_s=0.5,
)


def run_and_serialize(seed=5, faults=None, until=4.0):
    """Run one fresh simulator and flatten its trace to bytes."""
    scenario = build_scenario(
        ScenarioConfig(n_clients=2, seed=seed, faults=faults)
    )
    plan = faults or FaultPlan()
    scheduler = DynamicScheduler(
        scenario.proxy, calibrate(scenario.medium), interval_s=0.1,
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
        UdpSocket(handle.node, 5004)

    sender = UdpSocket(scenario.video_server, 21000)
    uplink = UdpSocket(scenario.clients[0].node, 21001)

    def feed():
        while scenario.sim.now < until - 0.5:
            for index in range(2):
                sender.sendto(700, Endpoint(client_ip(index), 5004))
            uplink.sendto(60, Endpoint(scenario.video_server.ip, 21001))
            yield scenario.sim.timeout(0.05)

    scenario.sim.process(feed())
    scenario.sim.run(until=until)
    payload = json.dumps(
        [
            [row.time, row.category, sorted(row.fields.items(), key=str)]
            for row in scenario.obs.trace.all()
        ],
        default=repr,
        sort_keys=True,
    ).encode()
    return payload, scenario


class TestDeterminism:
    def test_clean_runs_byte_identical(self):
        first, _ = run_and_serialize(faults=None)
        second, _ = run_and_serialize(faults=None)
        assert first == second

    def test_faulty_runs_byte_identical(self):
        first, a = run_and_serialize(faults=FULL_PLAN)
        second, b = run_and_serialize(faults=FULL_PLAN)
        assert first == second
        assert a.counters.totals() == b.counters.totals()
        # the plan actually did something, so the property has teeth
        assert a.counters.total("faults.") > 0

    def test_different_seed_differs(self):
        """Sanity: the serialization is sensitive enough to notice."""
        first, _ = run_and_serialize(seed=5, faults=FULL_PLAN)
        second, _ = run_and_serialize(seed=6, faults=FULL_PLAN)
        assert first != second
