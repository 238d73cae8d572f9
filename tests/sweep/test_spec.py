"""SweepSpec expansion: ordering, validation."""

import pytest

from repro.errors import SweepError
from repro.experiments.runner import ClientSpec, ExperimentConfig
from repro.sweep import RunSpec, SweepSpec
from repro.sweep.spec import _experiment

from tests.sweep._fixtures import double


def _base() -> ExperimentConfig:
    return ExperimentConfig(
        clients=[ClientSpec("web")], burst_interval_s=0.5,
        duration_s=5.0, seed=0,
    )


class TestFromTasks:
    def test_runs_are_indexed_in_order(self):
        spec = SweepSpec.from_tasks("s", double, [{"x": 1}, {"x": 2}])
        assert [run.index for run in spec] == [0, 1]
        assert spec.runs[1].params == {"x": 2}
        assert spec.runs[1].task is double

    def test_non_dense_indices_rejected(self):
        with pytest.raises(SweepError):
            SweepSpec(
                name="s",
                runs=(RunSpec(index=1, task=double, params={"x": 1}),),
            )

    def test_a_task_that_is_not_module_level_is_rejected(self):
        """Its module:qualname would not name it alone, so two such
        tasks could share a cache key."""

        def local(x):
            return x

        for task in (local, lambda x: x):
            with pytest.raises(SweepError, match="not a module-level"):
                SweepSpec.from_tasks("s", task, [{"x": 1}])


class TestExperiments:
    def test_wraps_configs_under_the_experiment_task(self):
        config = _base()
        spec = SweepSpec.experiments("e", [config])
        assert spec.runs[0].task is _experiment
        assert spec.runs[0].params == {"config": config}
