"""The rules' scopes: which modules each invariant applies to.

Scopes are prefixes of the *package-relative* path of a module (e.g.
``core/scheduler.py`` has module path ``core/scheduler.py``). A file
outside the package places itself in a scope with the
``# repro: module-path=`` pragma (see :mod:`repro.analysis.engine`).
"""

#: Directories whose code runs under simulated time. Wall-clock reads,
#: blocking I/O, and ambient entropy are forbidden here.
SIM_SCOPE: tuple[str, ...] = (
    "sim/", "core/", "net/", "faults/", "obs/", "campus/",
)

#: Directories whose iteration order can reach scheduling decisions.
ORDER_SCOPE: tuple[str, ...] = ("core/", "net/", "faults/", "campus/")

#: Directories where bare time/size literals must use ``repro.units``.
UNITS_SCOPE: tuple[str, ...] = ("core/", "net/", "campus/")

#: Directories whose public API must be fully type-annotated.
API_SCOPE: tuple[str, ...] = ("core/", "energy/")

#: Modules allowed to touch entropy sources (the blessed RNG factory).
ENTROPY_ALLOWED: tuple[str, ...] = ("sim/random.py",)

#: Modules allowed to call ``TraceRecorder.record`` directly — the
#: Recorder facade and the trace log it wraps.
OBS_ALLOWED: tuple[str, ...] = ("obs/",)

#: Artifact driver modules that must execute runs through the sweep
#: engine (SweepSpec + SweepEngine) rather than calling the simulation
#: runner directly — that is what makes caching and parallel fan-out
#: apply to every figure/table/baseline/report uniformly.
SWEEP_SCOPE: tuple[str, ...] = (
    "experiments/figures.py",
    "experiments/tables.py",
    "experiments/baselines.py",
    "experiments/report_gen.py",
)

#: Modules allowed to call the shard-migration primitives
#: (``release_client`` / ``adopt_client`` / ``forget_client``) — the
#: HandoffCoordinator is the single place cross-shard state may move.
CAMPUS_HANDOFF_ALLOWED: tuple[str, ...] = ("campus/handoff.py",)

