"""Experiment harness: scenario builders, runners, figures and tables.

Each experiment id (E1..E12) in DESIGN.md maps to a driver here; the
``benchmarks/`` tree calls these drivers through the claims table
(:mod:`~repro.experiments.claims`) and prints the same rows and series
the paper reports.

The names below resolve on first use, so importing the claims table
(standard library only) does not load the simulator.
"""

from __future__ import annotations

import importlib
from typing import Any

_SUBMODULES = ("baselines", "claims", "figures", "report_gen", "tables")

_HOMES = {
    name: module
    for module, names in {
        "runner": (
            "ClientSpec", "ExperimentConfig", "ExperimentResult", "mixed",
            "run_experiment", "video_only",
        ),
        "scenarios": ("Scenario", "ScenarioConfig", "build_scenario"),
    }.items()
    for name in names
}

__all__ = sorted((*_SUBMODULES, *_HOMES))


def __getattr__(name: str) -> Any:
    if name in _SUBMODULES:
        return importlib.import_module(f"repro.experiments.{name}")
    if name not in _HOMES:
        raise AttributeError(
            f"module 'repro.experiments' has no attribute {name!r}"
        )
    value = getattr(
        importlib.import_module(f"repro.experiments.{_HOMES[name]}"), name
    )
    globals()[name] = value
    return value
