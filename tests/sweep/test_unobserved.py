"""A swept experiment runs unobserved and returns what a direct run does.

No figure, table or claim reads a trace row, a span or a metrics
snapshot, so the sweep's ``experiment`` task runs each config with
``obs_mode="off"``. Its result is the off-mode run's, field for field,
and its reports, summaries and counters are those of the config run in
its own mode (``full``): the obs mode never changes what a run reports.
Serial and ``jobs=2`` sweeps return the same results, and no recorder
is built during a swept run.
"""

import dataclasses

import pytest

from repro.campus import CampusTopology, HandoffSpec, MobilityPlan
from repro.experiments.runner import (
    ClientSpec,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.faults import FaultPlan, Window
from repro.net.channel import ChannelPlan
from repro.obs.recorder import NullRecorder, SimRecorder
from repro.sweep import SweepEngine, SweepSpec


def _dynamic_video() -> ExperimentConfig:
    return ExperimentConfig(
        clients=[ClientSpec("video", video_kbps=56),
                 ClientSpec("video", video_kbps=256)],
        burst_interval_s=0.1,
        duration_s=2.0,
        warmup_s=0.2,
        start_stagger_s=0.3,
        seed=5,
    )


def _static_web() -> ExperimentConfig:
    return ExperimentConfig(
        clients=[ClientSpec("video", video_kbps=128), ClientSpec("web")],
        burst_interval_s=0.1,
        scheduler="static",
        static_tcp_weight=0.3,
        duration_s=2.0,
        warmup_s=0.2,
        start_stagger_s=0.3,
        seed=5,
    )


def _faults_channel_joint() -> ExperimentConfig:
    return ExperimentConfig(
        clients=[ClientSpec("video", video_kbps=56), ClientSpec("web")],
        burst_interval_s=0.1,
        duration_s=2.5,
        warmup_s=0.2,
        start_stagger_s=0.3,
        seed=5,
        policy="joint",
        policy_threshold_bytes=2000,
        faults=FaultPlan(loss_rate=0.05, outages=(Window(0.8, 1.0),)),
        channel=ChannelPlan(
            p_good_bad=0.3, p_bad_good=0.4, loss_bad=0.85, epoch_s=0.2
        ),
    )


def _roaming_campus() -> ExperimentConfig:
    return ExperimentConfig(
        clients=[ClientSpec("video", video_kbps=56)] * 6,
        burst_interval_s=0.25,
        duration_s=2.0,
        warmup_s=0.2,
        start_stagger_s=0.05,
        seed=3,
        campus=CampusTopology(
            n_cells=2,
            mobility=MobilityPlan(roam_rate=0.6, epoch_s=0.2),
            handoff=HandoffSpec(policy="transfer", latency_s=0.02),
        ),
    )


CONFIGS = {
    "dynamic_video": _dynamic_video,
    "static_web": _static_web,
    "faults_channel_joint": _faults_channel_joint,
    "roaming_campus": _roaming_campus,
}
NAMES = list(CONFIGS)

#: Every result field but the run's own description and its recording.
OUTPUTS = [
    f.name
    for f in dataclasses.fields(ExperimentResult)
    if f.name not in ("config", "metrics", "obs")
]


def _outputs(result: ExperimentResult) -> dict:
    return {field: getattr(result, field) for field in OUTPUTS}


def _spec() -> SweepSpec:
    return SweepSpec.experiments(
        "unobserved", [CONFIGS[name]() for name in NAMES]
    )


@pytest.fixture(scope="module")
def direct_full() -> dict[str, ExperimentResult]:
    return {name: run_experiment(CONFIGS[name]()) for name in NAMES}


@pytest.fixture(scope="module")
def direct_off() -> dict[str, ExperimentResult]:
    return {
        name: run_experiment(
            dataclasses.replace(CONFIGS[name](), obs_mode="off")
        )
        for name in NAMES
    }


def _spy_on_recorders(patch: pytest.MonkeyPatch) -> list:
    """The list each ``SimRecorder`` built while ``patch`` holds joins."""
    built = []
    original = SimRecorder.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    patch.setattr(SimRecorder, "__init__", spy)
    return built


@pytest.fixture(scope="module")
def swept():
    """The serial sweep's results by name, and how many recorders were
    built while it ran."""
    with pytest.MonkeyPatch.context() as patch:
        built = _spy_on_recorders(patch)
        results = SweepEngine().run(_spec()).results
    return dict(zip(NAMES, results)), len(built)


@pytest.mark.parametrize("name", NAMES)
def test_a_swept_result_is_the_off_mode_run(name, swept, direct_off):
    result = swept[0][name]
    expected = direct_off[name]
    assert result.config == expected.config
    assert result.config.obs_mode == "off"
    assert result.metrics is None
    assert type(result.obs) is NullRecorder
    assert _outputs(result) == _outputs(expected)


@pytest.mark.parametrize("name", NAMES)
def test_a_swept_run_reports_what_a_full_run_reports(
    name, swept, direct_full
):
    result = swept[0][name]
    full = direct_full[name]
    assert full.config.obs_mode == "full" and full.metrics
    assert _outputs(result) == _outputs(full)


def test_the_configs_exercise_what_they_name(swept):
    results = swept[0]
    assert [r.kind for r in results["static_web"].reports] == ["video", "web"]
    joint = results["faults_channel_joint"]
    assert joint.policy == "joint" and joint.policy_defers > 0
    assert {"faults.loss", "channel.rx_miss"} <= set(joint.fault_counters)
    campus = results["roaming_campus"]
    assert campus.cells == 2
    assert campus.handoffs > 0


def test_two_jobs_return_the_serial_results(swept):
    parallel = SweepEngine(jobs=2).run(_spec()).results
    assert [(r.config, r.metrics, _outputs(r)) for r in parallel] == [
        (r.config, r.metrics, _outputs(r))
        for r in (swept[0][name] for name in NAMES)
    ]


def test_a_swept_run_builds_no_recorder(swept):
    assert swept[1] == 0


def test_the_recorder_spy_sees_a_direct_run(monkeypatch):
    built = _spy_on_recorders(monkeypatch)
    run_experiment(dataclasses.replace(_dynamic_video(), duration_s=0.5))
    assert len(built) == 1
