"""FaultController wiring and the issue's end-to-end acceptance run."""

import json

import numpy as np
import pytest

from repro.core.delay_comp import AdaptiveCompensator
from repro.core.schedule import BurstSlot, Schedule
from repro.errors import ConfigurationError
from repro.experiments.runner import ClientSpec, ExperimentConfig, run_experiment
from repro.experiments.scenarios import ScenarioConfig, build_scenario
from repro.faults import (
    ChurnEvent,
    ClockFaultSpec,
    DriftingCompensator,
    FaultPlan,
    GilbertElliottSpec,
    Window,
)

ACCEPTANCE_PLAN = FaultPlan(
    burst_loss=GilbertElliottSpec(0.05, 0.4),
    schedule_blackouts=(Window(2.0, 3.0),),
    churn=(ChurnEvent(1, leave_at=3.0, rejoin_at=6.0),),
    fallback_after_misses=3,
    silence_timeout_s=1.0,
)


class TestControllerInstall:
    def test_install_is_idempotent(self):
        scenario = build_scenario(
            ScenarioConfig(n_clients=1, faults=FaultPlan(loss_rate=0.1))
        )
        pipeline = scenario.medium.faults
        assert pipeline is not None
        scenario.faults.install()
        assert scenario.medium.faults is pipeline

    def test_plan_without_medium_faults_is_a_no_op(self):
        plan = FaultPlan(clock=ClockFaultSpec(skew_ppm=50.0))
        scenario = build_scenario(ScenarioConfig(n_clients=1, faults=plan))
        assert scenario.medium.faults is None

    def test_no_plan_no_controller(self):
        scenario = build_scenario(ScenarioConfig(n_clients=1))
        assert scenario.faults is None
        assert scenario.medium.faults is None


class TestCompensatorWiring:
    def anchored_schedule(self):
        slot = BurstSlot("10.0.1.1", rendezvous=10.2, duration=0.05,
                         bytes_allotted=1000)
        return Schedule(seq=1, srp=10.0, next_srp=10.5, slots=(slot,))

    def test_no_clock_error_returns_inner(self):
        scenario = build_scenario(
            ScenarioConfig(n_clients=1, faults=FaultPlan(loss_rate=0.1))
        )
        inner = AdaptiveCompensator()
        assert scenario.faults.compensator_for(0, inner) is inner

    def test_clock_error_wraps(self):
        plan = FaultPlan(
            loss_rate=0.1, clock=ClockFaultSpec(skew_ppm=100.0)
        )
        scenario = build_scenario(ScenarioConfig(n_clients=1, faults=plan))
        wrapped = scenario.faults.compensator_for(0, AdaptiveCompensator())
        assert isinstance(wrapped, DriftingCompensator)

    def test_positive_skew_delays_wakeups(self):
        schedule = self.anchored_schedule()
        inner = AdaptiveCompensator()
        # 10% fast-running interval for an unmistakable effect
        drifting = DriftingCompensator(inner, skew_ppm=1e5, jitter_s=0.0)
        arrival = 10.01
        inner.observe_arrival(schedule, arrival)
        drifting.observe_arrival(schedule, arrival)
        true_wake = inner.next_schedule_wake(schedule, arrival)
        skewed_wake = drifting.next_schedule_wake(schedule, arrival)
        assert skewed_wake > true_wake
        expected = arrival + (true_wake - arrival) * 1.1
        assert skewed_wake == pytest.approx(expected)
        assert drifting.burst_wake(
            schedule, arrival, schedule.slots[0]
        ) > inner.burst_wake(schedule, arrival, schedule.slots[0])

    def test_jitter_requires_rng(self):
        with pytest.raises(ConfigurationError):
            DriftingCompensator(
                AdaptiveCompensator(), skew_ppm=0.0, jitter_s=0.001
            )

    def test_jitter_is_deterministic_per_stream(self):
        schedule = self.anchored_schedule()
        wakes = []
        for _ in range(2):
            drifting = DriftingCompensator(
                AdaptiveCompensator(), skew_ppm=0.0, jitter_s=0.002,
                rng=np.random.default_rng(12),
            )
            drifting.observe_arrival(schedule, 10.01)
            wakes.append(drifting.next_schedule_wake(schedule, 10.01))
        assert wakes[0] == wakes[1]


def acceptance_config():
    return ExperimentConfig(
        clients=[ClientSpec("video", video_kbps=56)] * 3,
        duration_s=8.0,
        seed=13,
        faults=ACCEPTANCE_PLAN,
    )


def canonical(result):
    """A byte-level fingerprint of everything the run measured."""
    return json.dumps(
        {
            "reports": [
                [r.name, r.ip, r.energy_j, r.naive_energy_j,
                 r.bytes_received, r.packets_missed, r.missed_schedules,
                 sorted(r.extra.items())]
                for r in result.reports
            ],
            "fault_counters": result.fault_counters,
            "slots_reclaimed": result.slots_reclaimed,
            "slots_restored": result.slots_restored,
            "schedules_sent": result.schedules_sent,
            "medium_frames": result.medium_frames,
        },
        sort_keys=True,
    ).encode()


class TestAcceptance:
    """The issue's acceptance scenario, end to end."""

    def test_faulty_experiment_runs_and_reports(self):
        result = run_experiment(acceptance_config())
        counters = result.fault_counters

        # every enabled injector shows up in the per-fault accounting
        assert counters.get("faults.burst_loss", 0) > 0
        assert counters.get("faults.blackout", 0) > 0
        assert counters.get("faults.churn_miss", 0) > 0
        # the unified drop accounting reaches the summary
        assert result.summary.drops == counters
        assert result.summary.total_drops == sum(counters.values())
        # the degraded client fell back and resynchronized
        fallbacks = sum(
            r.extra.get("fallbacks", 0) for r in result.reports
        )
        assert fallbacks >= 1
        # the churned client's silence reclaimed its slot
        assert result.slots_reclaimed >= 1

    def test_same_seed_runs_byte_identical(self):
        first = canonical(run_experiment(acceptance_config()))
        second = canonical(run_experiment(acceptance_config()))
        assert first == second


class TestCliAcceptance:
    ARGS = [
        "run", "--clients", "video:56,video:56,video:56",
        "--duration", "8", "--seed", "13",
        "--fault-burst-loss", "0.05:0.4",
        "--fault-blackout", "2.0:3.0",
        "--fault-churn", "1:3.0:6.0",
        "--fault-silence-timeout", "1.0",
        "--json",
    ]

    def test_cli_run_with_faults(self, capsys):
        from repro.cli import main

        assert main(list(self.ARGS)) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 3

    def test_cli_output_byte_identical(self, capsys):
        from repro.cli import main

        main(list(self.ARGS))
        first = capsys.readouterr().out
        main(list(self.ARGS))
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize(
        "flags, plan",
        [
            ([], None),
            (["--fault-fallback-misses", "3"], None),
            (
                ["--fault-fallback-misses", "1"],
                FaultPlan(fallback_after_misses=1),
            ),
        ],
    )
    def test_only_a_default_plan_is_no_plan(self, flags, plan):
        from repro.cli import build_fault_plan, build_parser

        args = build_parser().parse_args(["run", *flags])
        assert build_fault_plan(args) == plan

    def test_cli_table_shows_fault_counters(self, capsys):
        from repro.cli import main

        args = [a for a in self.ARGS if a != "--json"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "faults.burst_loss" in out
        assert "faults.blackout" in out
        assert "slots reclaimed" in out
