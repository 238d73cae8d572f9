"""Integration tests for the experiment runner (small scale)."""

import copy
import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.experiments.runner import (
    ClientSpec,
    ExperimentConfig,
    mixed,
    run_experiment,
    video_only,
)
from repro.obs import NULL_RECORDER
from repro.units import mib


class TestConfigValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ClientSpec("torrent")

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(scheduler="mystery")

    def test_empty_clients_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(clients=[])

    def test_static_needs_fixed_interval(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(
                clients=[ClientSpec("video")], scheduler="static",
                burst_interval_s=None, duration_s=5.0,
            )

    def test_unknown_tcp_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(tcp_mode="tunnel")


def passthrough_ftp(**overrides):
    """One FTP download over the end-to-end (unsplit) TCP connection."""
    return ExperimentConfig(
        clients=[ClientSpec("ftp", ftp_bytes=mib(1) // 4)],
        burst_interval_s=0.25, duration_s=5.0, tcp_mode="passthrough",
        **overrides,
    )


class TestOneDescription:
    def test_run_leaves_its_config_unchanged(self):
        config = passthrough_ftp(faults=FaultPlan(loss_rate=0.01))
        before = copy.deepcopy(config)
        run_experiment(config)
        assert config == before

    def test_reseeding_with_replace_changes_the_run(self):
        config = passthrough_ftp()
        reseeded = dataclasses.replace(config, seed=7)
        assert (
            run_experiment(reseeded).reports[0].extra["transfer_time_s"]
            != run_experiment(config).reports[0].extra["transfer_time_s"]
        )

    def test_obs_off_records_nothing(self):
        result = run_experiment(passthrough_ftp(obs_mode="off"))
        assert result.obs is NULL_RECORDER
        assert result.metrics is None


class TestVideoExperiments:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            video_only([56, 56, 256], burst_interval_s=0.25,
                       duration_s=15.0, seed=3)
        )

    def test_all_clients_reported(self, result):
        assert len(result.reports) == 3
        assert result.summary.count == 3

    def test_savings_substantial_and_bounded(self, result):
        for report in result.reports:
            assert 30.0 < report.energy_saved_pct < 95.0

    def test_lower_rate_saves_more(self, result):
        saved = [r.energy_saved_pct for r in result.reports]
        assert saved[0] > saved[2]  # 56K beats 256K

    def test_loss_is_low(self, result):
        assert result.summary.avg_loss_pct < 3.0

    def test_optimal_dominates(self, result):
        for report in result.reports:
            assert report.optimal_saved_pct is not None
            assert report.optimal_saved_pct > report.energy_saved_pct

    def test_energy_breakdown_consistency(self, result):
        for report in result.reports:
            assert report.breakdown.duration_s == pytest.approx(
                result.duration_s, rel=0.01
            )
            assert report.breakdown.energy_j < report.naive.energy_j

    def test_clients_received_stream_data(self, result):
        for report in result.reports:
            assert report.extra["app_bytes"] > 0

    def test_determinism(self):
        config = video_only([56], burst_interval_s=0.25, duration_s=5.0, seed=9)
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.reports[0].energy_j == b.reports[0].energy_j
        assert a.medium_frames == b.medium_frames


class TestMixedExperiments:
    def test_web_clients_browse_and_save(self):
        result = run_experiment(
            mixed([56], n_web=1, burst_interval_s=0.25, duration_s=20.0, seed=4)
        )
        web = [r for r in result.reports if r.kind == "web"][0]
        assert web.extra["objects_loaded"] > 0
        assert web.energy_saved_pct > 40.0
        assert result.tcp_summary.count == 1

    def test_ftp_download_completes(self):
        result = run_experiment(
            ExperimentConfig(
                clients=[ClientSpec("ftp", ftp_bytes=mib(1))],
                burst_interval_s=0.25, duration_s=30.0, seed=5,
            )
        )
        report = result.reports[0]
        assert report.extra["done"]
        assert report.extra["transfer_time_s"] < 25.0

    def test_naive_clients_mode(self):
        result = run_experiment(
            ExperimentConfig(
                clients=[ClientSpec("video")], burst_interval_s=0.25,
                duration_s=10.0, seed=6, tcp_mode="bridge",
            )
        )
        assert result.reports[0].energy_saved_pct == pytest.approx(0.0, abs=1.0)

    def test_static_scheduler_runs(self):
        result = run_experiment(
            ExperimentConfig(
                clients=[ClientSpec("video")] * 2,
                burst_interval_s=0.1, scheduler="static",
                duration_s=10.0, seed=7,
            )
        )
        for report in result.reports:
            assert report.energy_saved_pct > 30.0

    def test_fixed_compensator_with_clock_error_misses(self):
        good = run_experiment(
            ExperimentConfig(
                clients=[ClientSpec("video")], burst_interval_s=0.25,
                duration_s=15.0, seed=8, compensator="fixed",
                fixed_clock_offset_error_s=0.0,
            )
        )
        bad = run_experiment(
            ExperimentConfig(
                clients=[ClientSpec("video")], burst_interval_s=0.25,
                duration_s=15.0, seed=8, compensator="fixed",
                fixed_clock_offset_error_s=0.05,
            )
        )
        # A 50 ms clock error on absolute timestamps wrecks reception.
        assert (
            bad.reports[0].missed_schedules
            > good.reports[0].missed_schedules
        )
