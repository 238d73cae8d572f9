"""A simulated run makes no reference cycles.

``Simulator.run`` pauses the cyclic garbage collector and gives it one
young-generation pass on return. That is only free of cost in memory if
everything a run discards is freed by reference counting: a cycle made
during the run would stay alive until the next full collection, and
with every run paused, runs would stack up in memory.

The probe wraps ``Simulator.run``. It first collects what came before
the run, then runs the original under ``gc.DEBUG_SAVEALL`` and collects
once more on return. Under that flag every object a collection finds
unreachable is kept in ``gc.garbage`` instead of freed, including what
the run's own young pass finds, so the list holds exactly the cycles
the run made.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.campus import CampusTopology, HandoffSpec, MobilityPlan
from repro.experiments import runner
from repro.experiments.runner import ClientSpec, ExperimentConfig, run_experiment
from repro.sim.core import Simulator
from tests.sim.test_kernel_equivalence import SCENARIOS


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
        obs_mode="metrics",
    )


CONFIGS = {**SCENARIOS, "roaming_campus": _roaming_campus}


@pytest.fixture
def cycles_per_run(monkeypatch):
    """Wraps ``Simulator.run``; yields the list that gets, per call,
    a count of the cyclic garbage the run left, by type name."""
    original = Simulator.run
    found: list[Counter] = []

    def run(sim, until=None):
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            original(sim, until)
            gc.collect()
        finally:
            gc.set_debug(0)
            found.append(Counter(type(obj).__name__ for obj in gc.garbage))
            gc.garbage.clear()

    monkeypatch.setattr(Simulator, "run", run)
    return found


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_run_leaves_no_reference_cycles(name, cycles_per_run):
    result = run_experiment(CONFIGS[name]())
    assert cycles_per_run, "the experiment never ran the simulator"
    for garbage in cycles_per_run:
        assert not garbage, (
            f"{name}: the run left {sum(garbage.values())} objects in "
            f"reference cycles: {garbage.most_common(5)}"
        )
    if name == "roaming_campus":
        assert result.handoffs > 0, "the campus run should hand off"
        assert result.handoff_bytes_transferred > 0


def test_the_previous_run_is_freed_before_the_next_is_built(monkeypatch):
    """A scenario's nodes, interfaces and links point at each other (and
    at its simulator), so only a full collection frees a finished run;
    ``run_experiment`` makes one before it builds the next scenario, so
    that runs do not stack up in memory while the collector is paused."""
    original = runner.build_scenario
    built: list[weakref.ref] = []
    alive_at_build: list[bool] = []

    def build_scenario(config):
        alive_at_build.append(any(ref() is not None for ref in built))
        scenario = original(config)
        built.append(weakref.ref(scenario.sim))
        return scenario

    monkeypatch.setattr(runner, "build_scenario", build_scenario)
    run_experiment(SCENARIOS["static"]())
    run_experiment(SCENARIOS["static"]())
    assert alive_at_build == [False, False]
