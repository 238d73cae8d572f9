"""The layer ledger: which functions the traced run wraps, and what each
is predicted to move.

Every entry names a public function of one ``repro`` module, the
end-to-end metric a change to it should move, and the workloads where
that shows. An issue that claims a gain cites the entry by name; the
prediction ``flat`` means the workload does not exercise the layer and
its figures should not change.

A target that no longer exists (a refactor removed it) is reported
with zero calls rather than failing the run, so the ledger keeps
working across the change that deletes a layer.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Layer:
    """One wrapped function and its prediction."""

    #: Metric prefix: ``<module>.<function>`` below the ``repro`` package.
    name: str
    #: Import path of the module that defines the target.
    module: str
    #: ``Class.method`` or ``function`` inside that module.
    qualname: str
    #: End-to-end metrics a change here should move.
    moves: str
    #: Workloads where it moves them (others are predicted flat).
    on: str
    #: Also sum the integer the function returns (``<name>.bytes``).
    sum_result: bool = False
    #: A coroutine: it reports wall seconds from call to return
    #: (``<name>.wall_s``), since other tasks run while it awaits.
    awaited: bool = False


LAYERS: tuple[Layer, ...] = (
    Layer("sim.run", "repro.sim.core", "Simulator.run",
          "run_s, sim_rate", "fig4_grid, fig5_tcp"),
    Layer("experiments.build_scenario", "repro.experiments.scenarios",
          "build_scenario", "setup_s", "fig4_grid, fig5_tcp, campus_1k"),
    Layer("experiments.run_experiment", "repro.experiments.runner",
          "run_experiment", "run_s", "fig4_grid, fig5_tcp, campus_1k"),
    Layer("core.schedule.from_meta", "repro.core.schedule",
          "Schedule.from_meta", "run_s", "campus_1k (flat on fig4_grid)"),
    Layer("core.schedule.slot_for", "repro.core.schedule",
          "Schedule.slot_for", "run_s", "campus_1k (flat on fig4_grid)"),
    Layer("core.scheduler.build_schedule", "repro.core.scheduler",
          "DynamicScheduler.build_schedule", "run_s", "campus_1k"),
    Layer("core.proxy.broadcast_schedule", "repro.core.proxy",
          "TransparentProxy.broadcast_schedule", "run_s", "campus_1k"),
    Layer("core.burster.burst", "repro.core.burster", "Burster.burst",
          "run_s", "fig5_tcp", sum_result=True),
    Layer("net.medium.transmit", "repro.net.medium",
          "WirelessMedium.transmit", "run_s",
          "fig4_grid, fig5_tcp, campus_1k"),
    Layer("energy.analyzer.analyze", "repro.energy.analyzer",
          "EnergyAnalyzer.analyze", "run_s", "fig4_grid, fig5_tcp"),
    Layer("obs.recorder.event", "repro.obs.recorder", "SimRecorder.event",
          "run_s", "fig4_grid, fig5_tcp (flat on campus_1k)"),
    Layer("obs.recorder.span", "repro.obs.recorder", "SimRecorder.span",
          "run_s", "fig4_grid, fig5_tcp (flat on campus_1k)"),
    Layer("obs.recorder.inc", "repro.obs.recorder", "SimRecorder.inc",
          "run_s", "fig4_grid, fig5_tcp (flat on campus_1k)"),
    Layer("obs.recorder.observe", "repro.obs.recorder", "SimRecorder.observe",
          "run_s", "fig4_grid, fig5_tcp (flat on campus_1k)"),
    Layer("obs.recorder.gauge_set", "repro.obs.recorder",
          "SimRecorder.gauge_set",
          "run_s", "fig4_grid, fig5_tcp (flat on campus_1k)"),
    Layer("campus.handoff.handoff", "repro.campus.handoff",
          "HandoffCoordinator.handoff", "run_s", "campus_1k"),
    Layer("sweep.engine.run", "repro.sweep.engine", "SweepEngine.run",
          "run_s", "fig4_grid, fig5_tcp"),
    Layer("runtime.wire.encode", "repro.runtime.wire",
          "RuntimeSchedule.encode", "run_s",
          "live_proxy (flat on the simulator workloads)"),
    Layer("runtime.wire.decode", "repro.runtime.wire",
          "RuntimeSchedule.decode", "run_s",
          "live_proxy (flat on the simulator workloads)"),
    Layer("runtime.client.fetch", "repro.runtime.client",
          "AsyncPowerClient.fetch", "run_s",
          "live_proxy (flat on the simulator workloads)", awaited=True),
)

#: Counters the workloads read from the program after the traced run,
#: with the end-to-end metric and workloads each should move.
COUNTERS: tuple[tuple[str, str, str], ...] = (
    ("net.medium.miss_ratio", "run_s; frames_missed/frames_sent also "
     "guards correctness", "fig4_grid, fig5_tcp, campus_1k"),
    ("sweep.cache_hits", "must stay 0: the grids run uncached",
     "fig4_grid, fig5_tcp"),
    ("runtime.proxy.schedules_sent", "run_s", "live_proxy"),
    ("runtime.proxy.peak_buffered_bytes", "run_s", "live_proxy"),
    ("runtime.proxy.connections_refused", "run_s; must stay 0",
     "live_proxy"),
    ("trace.overhead", "traced run_s / untraced run_s - 1", "every workload"),
)

_COUNTER_UNITS = {
    "net.medium.miss_ratio": "ratio",
    "sweep.cache_hits": "count",
    "runtime.proxy.schedules_sent": "count",
    "runtime.proxy.peak_buffered_bytes": "bytes",
    "runtime.proxy.connections_refused": "count",
    "trace.overhead": "ratio",
}


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric."""
    if metric in _COUNTER_UNITS:
        return _COUNTER_UNITS[metric]
    return {"calls": "count", "self_s": "s", "wall_s": "s", "bytes": "bytes"}[
        metric.rsplit(".", 1)[1]
    ]


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in ledger order."""
    names = []
    for layer in LAYERS:
        names.append(f"{layer.name}.calls")
        names.append(f"{layer.name}.{'wall_s' if layer.awaited else 'self_s'}")
        if layer.sum_result:
            names.append(f"{layer.name}.bytes")
    return names + [name for name, _, _ in COUNTERS]
