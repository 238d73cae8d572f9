"""E5b — the paper's postmortem methodology: one capture, many policies.

Runs one live 100 ms experiment, captures the wireless trace, then
replays the capture offline against different early-transition amounts
— the way the paper's §4.1 simulator actually produced Figure 6 — and
checks the ``replay_sweep`` claims of :mod:`repro.experiments.claims`.
"""

from repro.core.bandwidth_model import calibrate
from repro.core.client import PowerAwareClient
from repro.core.delay_comp import AdaptiveCompensator
from repro.core.scheduler import DynamicScheduler
from repro.energy.replay import sweep_early_amounts
from repro.experiments.claims import BY_NAME
from repro.experiments.scenarios import (
    ScenarioConfig,
    VIDEO_SERVER_IP,
    build_scenario,
    client_ip,
)
from repro.net.addr import Endpoint
from repro.net.udp import UdpSocket
from repro.wnic.power import WAVELAN_2_4GHZ
from repro.workloads.video import (
    VIDEO_PORT,
    VideoClientApp,
    VideoServerApp,
    VideoStreamConfig,
)

from benchmarks.bench_utils import check_claims, save_results


def run_capture_and_sweep():
    scenario = build_scenario(ScenarioConfig(n_clients=4, seed=5))
    scheduler = DynamicScheduler(
        scenario.proxy, calibrate(scenario.medium), interval_s=0.1
    )
    scenario.proxy.attach_scheduler(scheduler)
    scenario.proxy.start()
    for index, handle in enumerate(scenario.clients):
        handle.daemon = PowerAwareClient(
            handle.node, handle.wnic, AdaptiveCompensator(early_s=0.006)
        )
        stream = VideoStreamConfig(nominal_kbps=56, duration_s=60.0)
        server_app = VideoServerApp(
            scenario.video_server,
            Endpoint(handle.node.ip, VIDEO_PORT),
            stream,
            rng=scenario.streams.get(f"video:{index}"),
            stream_id=index,
            start_at=0.5 + index,
        )
        VideoClientApp(
            handle.node, Endpoint(VIDEO_SERVER_IP, VIDEO_PORT),
            feedback_endpoint=server_app.feedback_endpoint,
            report_offset_s=0.05 + 0.293 * index,
        )
    scenario.sim.run(until=62.0)

    frames = scenario.monitor.frames
    results = sweep_early_amounts(
        frames, client_ip(0), WAVELAN_2_4GHZ,
        early_amounts_s=[0.0, 0.002, 0.006, 0.010],
        duration_s=scenario.sim.now,
    )
    rows = [
        {
            "early_ms": early * 1000.0,
            "replay_saved_pct": result.report.energy_saved_pct,
            "replay_missed_schedules": result.missed_schedules,
            "replay_frames_missed": result.frames_missed,
            "replay_early_wait_s": result.report.early_wait_s,
        }
        for early, result in results
    ]
    return rows


def test_bench_replay_sweep(benchmark):
    rows = benchmark.pedantic(run_capture_and_sweep, rounds=1, iterations=1)
    save_results("replay_sweep", rows)
    check_claims(BY_NAME["replay_sweep"], rows)
