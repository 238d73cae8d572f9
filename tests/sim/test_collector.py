"""A run pays the cyclic collector once, over what it made.

``run_experiment`` pauses the cyclic garbage collector for the whole
run: build, simulate and analyze. If the collector was on at entry, it
is switched back on after the run has returned and makes one
young-generation pass. Nothing was collected during the run, so that
pass walks only what the run made, and it frees the scenario, whose
nodes, interfaces and links point at each other.

The pause costs no memory only if a run makes no reference cycles: a
cycle made while the collector is paused stays alive until the closing
pass. The cycle probe wraps ``Simulator.run``. It first collects what
came before the run, then runs the original under
``gc.DEBUG_SAVEALL`` and collects once more on return. Under that flag
every object a collection finds unreachable is kept in ``gc.garbage``
instead of freed, so the list holds exactly the cycles the run made.

The other tests pin the contract: one generation-0 collection per run,
after the analysis; the run's simulator freed the moment
``run_experiment`` returns, in every obs mode; no collection for a
caller that switched the collector off; and the collector's state
restored when a run raises.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.campus import CampusTopology, HandoffSpec, MobilityPlan
from repro.energy.analyzer import EnergyAnalyzer
from repro.errors import ConfigurationError
from repro.experiments.runner import ClientSpec, ExperimentConfig, run_experiment
from repro.obs import OBS_MODES
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


@pytest.fixture
def timeline(monkeypatch):
    """Yields the list that gets, in order, ``("collect", generation)``
    for each collection the collector starts and ``"analyze"`` for each
    client report the energy analyzer prices."""
    log: list = []
    original = EnergyAnalyzer.analyze

    def analyze(analyzer, *args, **kwargs):
        log.append("analyze")
        return original(analyzer, *args, **kwargs)

    def probe(phase, info):
        if phase == "start":
            log.append(("collect", info["generation"]))

    monkeypatch.setattr(EnergyAnalyzer, "analyze", analyze)
    gc.callbacks.append(probe)
    try:
        yield log
    finally:
        gc.callbacks.remove(probe)


@pytest.fixture
def simulators(monkeypatch):
    """Wraps ``Simulator.run``; yields the list that gets a weak
    reference to each simulator run."""
    original = Simulator.run
    refs: list[weakref.ref] = []

    def run(sim, until=None):
        refs.append(weakref.ref(sim))
        original(sim, until)

    monkeypatch.setattr(Simulator, "run", run)
    return refs


def _collections(log: list) -> list:
    return [entry for entry in log if entry != "analyze"]


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


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_run_collects_once_young_after_the_analysis(name, timeline):
    assert gc.isenabled()
    config = CONFIGS[name]()
    gc.collect()
    del timeline[:]
    run_experiment(config)
    log = list(timeline)
    assert "analyze" in log
    assert _collections(log) == [("collect", 0)], log
    assert log[-1] == ("collect", 0)


@pytest.mark.parametrize("obs_mode", sorted(OBS_MODES))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_the_run_is_freed_when_run_experiment_returns(
    name, obs_mode, simulators
):
    config = CONFIGS[name]()
    config.obs_mode = obs_mode
    result = run_experiment(config)
    [ref] = simulators
    # The result, still held here, keeps nothing of the scenario alive.
    assert result.reports
    assert ref() is None, f"{name}/{obs_mode}: the simulator outlived its run"


def test_a_caller_that_turned_the_collector_off_gets_no_pass(timeline):
    config = SCENARIOS["static"]()
    gc.disable()
    try:
        run_experiment(config)
        left_on = gc.isenabled()
        log = list(timeline)
    finally:
        gc.enable()
    assert not left_on
    assert "analyze" in log
    assert _collections(log) == []


@pytest.mark.parametrize("collector_on", [True, False])
def test_a_run_that_raises_leaves_the_collector_as_it_found_it(collector_on):
    # Three cells need at least three clients; the build refuses two.
    config = ExperimentConfig(
        clients=[ClientSpec("video")] * 2,
        campus=CampusTopology(n_cells=3),
    )
    if not collector_on:
        gc.disable()
    try:
        with pytest.raises(ConfigurationError, match="cells"):
            run_experiment(config)
        state = gc.isenabled()
    finally:
        gc.enable()
    assert state is collector_on
