"""Declarative sweep specifications.

A :class:`SweepSpec` is an *ordered* list of runs: each
:class:`RunSpec` names a registered task (see
:mod:`repro.sweep.tasks`), its parameters (the cache-key material) and
a free-form label dict the caller uses to tag result rows. Expansion
is pure — the same spec always yields the same runs in the same order,
which is what lets the parallel executor promise output byte-identical
to the serial path.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional, Sequence

from repro.errors import SweepError

EXPERIMENT_TASK = "experiment"


@dataclass(frozen=True)
class RunSpec:
    """One unit of work in a sweep."""

    index: int
    task: str
    params: Mapping[str, Any]
    label: Mapping[str, Any] = field(default_factory=dict)


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

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.runs)

    # -- builders ----------------------------------------------------------

    @classmethod
    def from_tasks(
        cls,
        name: str,
        task: str,
        params_list: Sequence[Mapping[str, Any]],
        labels: Optional[Sequence[Mapping[str, Any]]] = None,
    ) -> "SweepSpec":
        """One run per params dict, all against the same task."""
        if labels is not None and len(labels) != len(params_list):
            raise SweepError(
                f"sweep {name!r}: {len(params_list)} runs but "
                f"{len(labels)} labels"
            )
        runs = tuple(
            RunSpec(
                index=index,
                task=task,
                params=dict(params),
                label=dict(labels[index]) if labels is not None else {},
            )
            for index, params in enumerate(params_list)
        )
        return cls(name=name, runs=runs)

    @classmethod
    def experiments(
        cls,
        name: str,
        configs: Sequence[Any],
        labels: Optional[Sequence[Mapping[str, Any]]] = None,
    ) -> "SweepSpec":
        """One :func:`~repro.experiments.runner.run_experiment` per
        ``ExperimentConfig``, in the given order, each run unobserved
        (see :mod:`repro.sweep.tasks`)."""
        return cls.from_tasks(
            name,
            EXPERIMENT_TASK,
            [{"config": config} for config in configs],
            labels=labels,
        )

    @classmethod
    def grid(
        cls,
        name: str,
        base: Any,
        axes: Mapping[str, Sequence[Any]],
        seeds: Sequence[int] = (0,),
    ) -> "SweepSpec":
        """The cartesian product of field ``axes`` × ``seeds`` over a
        base ``ExperimentConfig``.

        Axes apply via :func:`dataclasses.replace` in the mapping's
        insertion order; seeds vary fastest. Labels carry each run's
        axis values plus its seed.
        """
        if not dataclasses.is_dataclass(base):
            raise SweepError("grid base must be a dataclass (ExperimentConfig)")
        valid = {f.name for f in dataclasses.fields(base)}
        for axis in axes:
            if axis not in valid:
                raise SweepError(
                    f"grid axis {axis!r} is not a field of "
                    f"{type(base).__name__}"
                )
        if not seeds:
            raise SweepError("grid needs at least one seed")
        configs = []
        labels = []
        axis_names = list(axes)
        for values in itertools.product(*(axes[a] for a in axis_names)):
            overrides = dict(zip(axis_names, values))
            for seed in seeds:
                configs.append(
                    dataclasses.replace(base, seed=seed, **overrides)
                )
                labels.append({**overrides, "seed": seed})
        return cls.experiments(name, configs, labels=labels)
