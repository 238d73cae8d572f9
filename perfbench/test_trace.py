"""The traced run measures the same program the untraced run does.

Run with ``python3 -m pytest perfbench/test_trace.py`` from the root of
the repository (the tier-1 suite does not collect this directory).
"""

from perfbench.common import digest
from perfbench.kernel import KERNEL_CHECKSUM, Meter, reference_kernel
from perfbench.layers import LAYERS, Layer, per_layer_names
from perfbench.simwork import (
    SlicedEngine,
    campus_config,
    campus_rows,
    grid_rows,
    sliced_simulation,
)
from perfbench.trace import LayerTracer

from repro.core.schedule import Schedule
from repro.experiments import runner, scenarios
from repro.experiments.runner import run_experiment
from repro.sim.core import Simulator


def _small_campus_digest() -> str:
    return digest(campus_rows(run_experiment(campus_config(3, 40, 1.0))))


def test_wrapped_grid_matches_unwrapped_digest():
    plain = grid_rows("fig4_grid", 0, SlicedEngine(limit=1))
    tracer = LayerTracer(LAYERS)
    with tracer.active():
        traced = grid_rows("fig4_grid", 0, SlicedEngine(limit=1))
    assert digest(traced) == digest(plain)
    assert tracer.stats["sim.run"].calls == 1
    assert tracer.stats["experiments.build_scenario"].calls == 1
    assert tracer.stats["core.schedule.from_meta"].calls > 0


def test_wrapped_sliced_campus_matches_unwrapped_digest():
    plain = _small_campus_digest()
    tracer = LayerTracer(LAYERS)
    meter = Meter(tracer.excluded)
    with tracer.active(), sliced_simulation(meter):
        traced = _small_campus_digest()
    assert traced == plain
    assert tracer.stats["campus.handoff.handoff"].calls > 0
    assert tracer.stats["sim.run"].calls == len(meter.units) - 1


def test_originals_are_restored():
    run, from_meta = Simulator.__dict__["run"], Schedule.__dict__["from_meta"]
    build = scenarios.build_scenario
    with LayerTracer(LAYERS).active():
        assert Simulator.__dict__["run"] is not run
        assert runner.build_scenario is not build
    assert Simulator.__dict__["run"] is run
    assert Schedule.__dict__["from_meta"] is from_meta
    assert runner.build_scenario is build and scenarios.build_scenario is build


def test_self_time_excludes_wrapped_children():
    tracer = LayerTracer(LAYERS)
    with tracer.active():
        grid_rows("fig4_grid", 0, SlicedEngine(limit=1))
    outer = tracer.stats["experiments.run_experiment"].self_s
    inner = tracer.stats["sim.run"].self_s
    assert 0.0 < outer < inner


def test_missing_target_reports_zero():
    gone = Layer("core.schedule.gone", "repro.core.schedule", "Schedule.gone",
                 "run_s", "none")
    tracer = LayerTracer((gone,))
    with tracer.active():
        pass
    assert tracer.missing == ["core.schedule.gone"]
    assert tracer.metrics(1.0) == {
        "core.schedule.gone.calls": 0, "core.schedule.gone.self_s": 0.0,
    }


def test_metric_names_follow_the_ledger():
    names = per_layer_names()
    assert len(names) == len(set(names))
    assert "core.schedule.from_meta.self_s" in names
    assert "runtime.client.fetch.wall_s" in names
    assert "trace.overhead" in names


def test_reference_kernel_is_fixed():
    assert reference_kernel() == KERNEL_CHECKSUM
