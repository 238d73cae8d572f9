"""Declarative sweep specifications.

A :class:`SweepSpec` is an *ordered* list of runs: each
:class:`RunSpec` holds a task — a module-level function, sent to worker
processes by reference — and its keyword parameters (the cache-key
material). Expansion is pure — the same spec always yields the same
runs in the same order, which is what lets the parallel executor
promise output byte-identical to the serial path.

A task's parameters must be canonicalizable (see
:mod:`repro.sweep.canonical`) and its return value must pickle cleanly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.errors import SweepError


@dataclass(frozen=True)
class RunSpec:
    """One unit of work in a sweep: ``task(**params)``."""

    index: int
    task: Callable[..., Any]
    params: Mapping[str, Any]


@dataclass(frozen=True)
class SweepSpec:
    """An ordered run list plus the name artifacts report under."""

    name: str
    runs: tuple[RunSpec, ...]

    def __post_init__(self) -> None:
        for position, run in enumerate(self.runs):
            if run.index != position:
                raise SweepError(
                    f"sweep {self.name!r}: run at position {position} "
                    f"carries index {run.index}; indices must be dense "
                    "and ordered"
                )
            # The task's module:qualname is its cache address, so it
            # must name this function and no other.
            if "<" in run.task.__qualname__:
                raise SweepError(
                    f"sweep {self.name!r}: task {run.task.__qualname__!r} "
                    "is not a module-level function"
                )

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.runs)

    # -- builders ----------------------------------------------------------

    @classmethod
    def from_tasks(
        cls,
        name: str,
        task: Callable[..., Any],
        params_list: Sequence[Mapping[str, Any]],
    ) -> "SweepSpec":
        """One run per params dict, all against the same task."""
        runs = tuple(
            RunSpec(index=index, task=task, params=dict(params))
            for index, params in enumerate(params_list)
        )
        return cls(name=name, runs=runs)

    @classmethod
    def experiments(cls, name: str, configs: Sequence[Any]) -> "SweepSpec":
        """One :func:`_experiment` run per ``ExperimentConfig``, in the
        given order."""
        return cls.from_tasks(
            name, _experiment, [{"config": config} for config in configs]
        )


def _experiment(config: Any) -> Any:
    """Run one :class:`~repro.experiments.runner.ExperimentConfig`
    unobserved.

    A swept experiment records nothing it does not return: the result's
    ``config`` says ``obs_mode="off"``, so it carries the shared
    ``NULL_RECORDER``, which holds no events, spans or metrics. Its
    reports, summaries and counters are what the config reports in its
    own mode, since no obs mode changes them; ``repro run`` and ``repro
    trace`` call ``run_experiment`` directly when a trace or metrics
    export is wanted. The runner is looked up on its module at call
    time, so a wrapper installed there (a profiler's, a test's) sees
    every swept run.
    """
    from repro.experiments import runner

    return runner.run_experiment(dataclasses.replace(config, obs_mode="off"))
