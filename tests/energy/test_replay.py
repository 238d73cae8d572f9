"""Tests for the postmortem policy replay (§4.1 methodology)."""

import pytest

from repro.core.bandwidth_model import calibrate
from repro.core.client import PowerAwareClient
from repro.core.delay_comp import AdaptiveCompensator
from repro.core.scheduler import DynamicScheduler
from repro.energy.replay import replay_policy, sweep_early_amounts
from repro.errors import TraceError
from repro.experiments.scenarios import (
    ScenarioConfig,
    build_scenario,
    client_ip,
)
from repro.net.addr import Endpoint
from repro.net.udp import UdpSocket
from repro.wnic.power import WAVELAN_2_4GHZ


@pytest.fixture(scope="module")
def capture():
    """A live run whose capture the replay tests chew on."""
    scenario = build_scenario(ScenarioConfig(n_clients=2, seed=31))
    scheduler = DynamicScheduler(
        scenario.proxy, calibrate(scenario.medium), interval_s=0.1
    )
    scenario.proxy.attach_scheduler(scheduler)
    scenario.proxy.start()
    daemons = []
    for handle in scenario.clients:
        daemons.append(
            PowerAwareClient(
                handle.node, handle.wnic, AdaptiveCompensator(early_s=0.006)
            )
        )
        handle.daemon = daemons[-1]
        UdpSocket(handle.node, 5004)
    sender = UdpSocket(scenario.video_server, 24000)

    def feed():
        while scenario.sim.now < 10.0:
            for index in (0, 1):
                sender.sendto(700, Endpoint(client_ip(index), 5004))
            yield scenario.sim.timeout(0.06)

    scenario.sim.process(feed())
    scenario.sim.run(until=10.5)
    return scenario


def test_empty_capture_rejected():
    with pytest.raises(TraceError):
        replay_policy([], "10.0.1.1", AdaptiveCompensator(), WAVELAN_2_4GHZ)


def test_replay_matches_live_run_closely(capture):
    """Replaying the *same* policy over the capture must land close to
    the live client's measured energy."""
    live = capture
    frames = live.monitor.frames
    result = replay_policy(
        frames, client_ip(0), AdaptiveCompensator(early_s=0.006),
        WAVELAN_2_4GHZ, duration_s=live.sim.now,
    )
    from repro.energy.analyzer import EnergyAnalyzer

    analyzer = EnergyAnalyzer(
        frames, WAVELAN_2_4GHZ, duration_s=live.sim.now,
        misses=live.medium.data_misses,
    )
    live_report = analyzer.analyze(
        "live", client_ip(0), live.clients[0].wnic
    )
    assert result.report.energy_saved_pct == pytest.approx(
        live_report.energy_saved_pct, abs=4.0
    )
    assert result.schedules_heard > 80


def test_replay_hears_schedules_and_bursts(capture):
    frames = capture.monitor.frames
    result = replay_policy(
        frames, client_ip(1), AdaptiveCompensator(early_s=0.006),
        WAVELAN_2_4GHZ, duration_s=capture.sim.now,
    )
    assert result.schedules_heard > 80
    assert result.frames_delivered > 100
    assert result.report.energy_saved_pct > 50.0


def test_sweep_early_amounts_shape(capture):
    """The offline sweep reproduces the Figure 6 trend: less early →
    more missed schedules; more early → more idle wait."""
    frames = capture.monitor.frames
    results = dict(
        sweep_early_amounts(
            frames, client_ip(0), WAVELAN_2_4GHZ,
            early_amounts_s=[0.0, 0.006, 0.012],
            duration_s=capture.sim.now,
        )
    )
    assert (
        results[0.0].missed_schedules >= results[0.006].missed_schedules
    )
    assert (
        results[0.012].report.early_wait_s
        > results[0.006].report.early_wait_s * 0.8
    )


def test_zero_early_replay_misses_more_frames(capture):
    frames = capture.monitor.frames
    eager = replay_policy(
        frames, client_ip(0), AdaptiveCompensator(early_s=0.006),
        WAVELAN_2_4GHZ, duration_s=capture.sim.now,
    )
    risky = replay_policy(
        frames, client_ip(0), AdaptiveCompensator(early_s=0.0, window=0),
        WAVELAN_2_4GHZ, duration_s=capture.sim.now,
    )
    assert risky.frames_missed >= eager.frames_missed
