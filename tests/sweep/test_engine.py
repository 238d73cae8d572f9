"""SweepEngine: serial/parallel identity, retries, isolation, reports."""

import pickle

import pytest

from repro.errors import ConfigurationError, SweepExecutionError
from repro.experiments.runner import ClientSpec, ExperimentConfig
from repro.sweep import ResultCache, RunSpec, SweepEngine, SweepSpec


def _double_spec(n: int = 5) -> SweepSpec:
    return SweepSpec.from_tasks(
        "doubles", "test-double", [{"x": x} for x in range(n)]
    )


class TestValidation:
    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepEngine(jobs=0)

    def test_bad_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepEngine(retries=-1)


class TestSerialExecution:
    def test_results_in_spec_order(self):
        outcome = SweepEngine().run(_double_spec())
        assert outcome.results == [0, 2, 4, 6, 8]
        assert outcome.report.total == 5
        assert outcome.report.executed == 5
        assert outcome.report.cache_hits == 0

    def test_failure_raises_with_traceback(self):
        spec = SweepSpec.from_tasks(
            "fails", "test-fail", [{"x": 1}]
        )
        with pytest.raises(SweepExecutionError) as excinfo:
            SweepEngine(retries=0).run(spec)
        assert "boom 1" in str(excinfo.value)
        assert "1 run(s) failed" in str(excinfo.value)

    def test_one_failure_does_not_stop_other_runs(self):
        spec = SweepSpec(
            name="mixed",
            runs=(
                RunSpec(index=0, task="test-double", params={"x": 1}),
                RunSpec(index=1, task="test-fail", params={"x": 9}),
                RunSpec(index=2, task="test-double", params={"x": 3}),
            ),
        )
        engine = SweepEngine(retries=0)
        with pytest.raises(SweepExecutionError):
            engine.run(spec)
        report = engine.last_report
        assert report.executed == 2
        assert report.failures == 1
        assert [record.error is None for record in report.runs] == [
            True, False, True,
        ]
        assert "boom 9" in report.runs[1].error

    def test_bounded_retry_recovers_a_flaky_run(self, tmp_path):
        marker = tmp_path / "attempted"
        spec = SweepSpec.from_tasks(
            "flaky", "test-fail-once",
            [{"marker": str(marker), "x": 7}],
        )
        outcome = SweepEngine(retries=1).run(spec)
        assert outcome.results == [7]
        assert outcome.report.retries == 1
        assert outcome.report.runs[0].attempts == 2

    def test_retries_are_bounded(self):
        spec = SweepSpec.from_tasks("fails", "test-fail", [{"x": 3}])
        with pytest.raises(SweepExecutionError):
            SweepEngine(retries=2).run(spec)


class TestParallelExecution:
    def test_parallel_results_byte_identical_to_serial(self):
        serial = SweepEngine(jobs=1).run(_double_spec(6))
        parallel = SweepEngine(jobs=2).run(_double_spec(6))
        assert pickle.dumps(serial.results) == pickle.dumps(parallel.results)
        assert parallel.report.jobs == 2
        assert parallel.report.executed == 6

    def test_parallel_experiment_grid_byte_identical_to_serial(self):
        configs = [
            ExperimentConfig(
                clients=[ClientSpec("video", video_kbps=56)],
                burst_interval_s=0.1,
                duration_s=5.0,
                seed=seed,
            )
            for seed in (0, 1)
        ]
        spec = SweepSpec.experiments("identity-grid", configs)
        serial = SweepEngine(jobs=1).run(spec)
        parallel = SweepEngine(jobs=2).run(spec)
        assert pickle.dumps(serial.results) == pickle.dumps(parallel.results)

    def test_parallel_failure_isolation_and_retry_exhaustion(self):
        spec = SweepSpec.from_tasks(
            "par-fails", "test-fail", [{"x": 1}, {"x": 2}, {"x": 3}]
        )
        engine = SweepEngine(jobs=2, retries=1)
        with pytest.raises(SweepExecutionError):
            engine.run(spec)
        report = engine.last_report
        assert report.failures == 3
        assert all(r.attempts == 2 for r in report.runs)

    def test_parallel_writes_populate_the_shared_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepEngine(jobs=2, cache=cache).run(_double_spec(4))
        warm = SweepEngine(jobs=2, cache=cache).run(_double_spec(4))
        assert warm.report.cache_hits == 4
        assert warm.report.executed == 0


class TestReporting:
    def test_reports_accumulate_and_combine(self):
        engine = SweepEngine()
        engine.run(_double_spec(2))
        engine.run(_double_spec(3))
        assert len(engine.reports) == 2
        assert engine.last_report.total == 3
        combined = engine.combined_report()
        assert combined.total == 5
        assert combined.executed == 5

    def test_as_dict_is_json_ready(self):
        report = SweepEngine().run(_double_spec(2)).report
        data = report.as_dict()
        assert data["total"] == 2
        assert len(data["runs"]) == 2
        assert {"index", "task", "key", "cached", "attempts"} <= set(
            data["runs"][0]
        )

    def test_summary_is_one_line(self):
        report = SweepEngine().run(_double_spec(2)).report
        assert "\n" not in report.summary()
        assert "2 runs" in report.summary()
