"""Metric name compatibility between the live runtime and the simulator.

The runtime's whole observability story is that a live run and a
simulated run can be diffed instrument-by-instrument. This test runs
both and asserts that every non-``runtime.``-prefixed instrument the
live proxy emits exists under the *same name* in a simulator run
(``runtime.*`` names are the documented live-only extensions).
"""

import pytest

from repro.experiments.runner import (
    ClientSpec,
    ExperimentConfig,
    run_experiment,
)
from repro.faults.plan import FaultPlan
from repro.obs import SimRecorder
from repro.runtime.loadtest import LoadTestConfig, run_loadtest

from tests.runtime.conftest import run_strict


def _instrument_names(snapshot: dict) -> set[str]:
    return {
        entry["name"]
        for section in ("counters", "gauges", "histograms")
        for entry in snapshot[section]
    }


#: Names both sides must emit in any non-trivial run — the shared
#: vocabulary pinned down so a rename on either side fails loudly.
SHARED_CORE = {
    "scheduler.queue_bytes",
    "scheduler.slot_lateness_s",
    "proxy.schedules_broadcast",
    "proxy.bursts",
    "proxy.burst_bytes",
    "client.schedules_heard",
}


@pytest.mark.timeout(120)
def test_runtime_metric_names_match_simulator():
    # A short simulated run with enough fault surface to emit the
    # reclaim/drop families too.
    sim_result = run_experiment(ExperimentConfig(
        clients=[ClientSpec("video", video_kbps=56)],
        burst_interval_s=0.1,
        duration_s=10.0,
        seed=0,
        faults=FaultPlan(loss_rate=0.3, silence_timeout_s=1.0),
    ))
    sim_names = _instrument_names(sim_result.obs.metrics.snapshot())

    recorder = SimRecorder()
    run_strict(
        run_loadtest(
            LoadTestConfig(
                clients=3, requests_per_client=2, bytes_per_request=16_000,
            ),
            obs=recorder,
        ),
        timeout_s=60.0,
    )
    runtime_names = _instrument_names(recorder.metrics.snapshot())

    assert SHARED_CORE <= runtime_names
    assert SHARED_CORE <= sim_names
    shared = {n for n in runtime_names if not n.startswith("runtime.")}
    missing = shared - sim_names
    assert not missing, (
        "live runtime emits instrument names the simulator does not: "
        f"{sorted(missing)} (rename them or prefix with 'runtime.')"
    )
