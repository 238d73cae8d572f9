"""SweepEngine: serial/parallel identity, isolation, reports."""

import pickle

import pytest

from repro.errors import ConfigurationError, SweepExecutionError
from repro.experiments.runner import ClientSpec, ExperimentConfig
from repro.sweep import ResultCache, RunSpec, SweepEngine, SweepSpec

from tests.sweep._fixtures import die, double, fail_always, fail_once


def _double_spec(n: int = 5) -> SweepSpec:
    return SweepSpec.from_tasks(
        "doubles", double, [{"x": x} for x in range(n)]
    )


def _mixed_spec(name: str, *tasks) -> SweepSpec:
    """Run ``i`` calls ``tasks[i](x=i)``."""
    return SweepSpec(
        name=name,
        runs=tuple(
            RunSpec(index=i, task=task, params={"x": i})
            for i, task in enumerate(tasks)
        ),
    )


class TestValidation:
    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepEngine(jobs=0)


class TestSerialExecution:
    def test_results_in_spec_order(self):
        outcome = SweepEngine().run(_double_spec())
        assert outcome.results == [0, 2, 4, 6, 8]
        assert outcome.report.total == 5
        assert outcome.report.executed == 5
        assert outcome.report.cache_hits == 0

    def test_failure_raises_with_traceback(self):
        spec = SweepSpec.from_tasks("fails", fail_always, [{"x": 1}])
        with pytest.raises(SweepExecutionError) as excinfo:
            SweepEngine().run(spec)
        assert "boom 1" in str(excinfo.value)
        assert "1 run(s) failed" in str(excinfo.value)
        assert "run 0 (tests.sweep._fixtures:fail_always)" in str(
            excinfo.value
        )

    def test_one_failure_does_not_stop_other_runs(self):
        spec = SweepSpec(
            name="mixed",
            runs=(
                RunSpec(index=0, task=double, params={"x": 1}),
                RunSpec(index=1, task=fail_always, params={"x": 9}),
                RunSpec(index=2, task=double, params={"x": 3}),
            ),
        )
        engine = SweepEngine()
        with pytest.raises(SweepExecutionError):
            engine.run(spec)
        report = engine.last_report
        assert report.executed == 2
        assert report.failures == 1
        assert [record.error is None for record in report.runs] == [
            True, False, True,
        ]
        assert "boom 9" in report.runs[1].error

    def test_a_rerun_resumes_from_the_cache(self, tmp_path):
        """A failed run is not retried: it fails once, its siblings
        reach the cache, and the next run of the spec executes only
        the failed run."""
        marker = tmp_path / "attempted"
        spec = SweepSpec(
            name="flaky",
            runs=(
                RunSpec(index=0, task=double, params={"x": 1}),
                RunSpec(
                    index=1, task=fail_once,
                    params={"marker": str(marker), "x": 7},
                ),
                RunSpec(index=2, task=double, params={"x": 3}),
            ),
        )
        cache = ResultCache(tmp_path / "cache")
        engine = SweepEngine(cache=cache)
        with pytest.raises(SweepExecutionError):
            engine.run(spec)
        assert marker.exists()
        assert engine.last_report.failures == 1
        assert len(cache) == 2

        outcome = engine.run(spec)
        assert outcome.results == [2, 7, 6]
        assert outcome.report.cache_hits == 2
        assert outcome.report.executed == 1


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

    def test_parallel_failure_isolation(self, tmp_path):
        spec = _mixed_spec(
            "par-fails", double, fail_always, double, fail_always
        )
        cache = ResultCache(tmp_path)
        engine = SweepEngine(jobs=2, cache=cache)
        with pytest.raises(SweepExecutionError):
            engine.run(spec)
        report = engine.last_report
        assert report.failures == 2
        assert report.executed == 2
        assert [record.error is None for record in report.runs] == [
            True, False, True, False,
        ]
        assert "boom 3" in report.runs[3].error
        assert len(cache) == 2

    def test_a_dead_worker_fails_its_runs_and_the_pool_recovers(self):
        spec = _mixed_spec("dead-worker", double, die, double, double)
        engine = SweepEngine(jobs=2)
        with pytest.raises(SweepExecutionError) as excinfo:
            engine.run(spec)
        assert "run 1 (tests.sweep._fixtures:die)" in str(excinfo.value)
        report = engine.last_report
        assert report.executed + report.failures == report.total == 4
        assert "BrokenProcessPool" in report.runs[1].error

        outcome = engine.run(_double_spec(4))
        assert outcome.results == [0, 2, 4, 6]
        assert outcome.report.executed == 4

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
        assert {"index", "task", "key", "cached"} <= set(data["runs"][0])
        assert data["runs"][0]["task"] == "tests.sweep._fixtures:double"

    def test_summary_is_one_line(self):
        report = SweepEngine().run(_double_spec(2)).report
        assert "\n" not in report.summary()
        assert "2 runs" in report.summary()
