"""The simulator workloads: the two figure grids and the campus smoke.

Each runs its experiments through the program's own drivers. The grids
go through ``repro.experiments.figures`` with an engine adapter that
hands the real :class:`~repro.sweep.SweepEngine` one run at a time, so
the reference kernel can run between experiments. The campus run is
one ``run_experiment`` whose ``Simulator.run(until=...)`` the benchmark
drives in slices of simulated time, with the kernel between slices.
Slicing cannot change the output: the events run in the same order,
and the pinned digest checks it.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from perfbench.common import (
    DEFAULT_SEED,
    SETUP_REPEATS,
    Measured,
    digest,
    import_seconds,
    normalise,
    setup_record,
)
from perfbench.kernel import Meter, kernel_sample
from perfbench.trace import LayerTracer, guards

from repro.campus import CampusTopology, HandoffSpec, MobilityPlan
from repro.experiments import figures
from repro.experiments.runner import (
    ClientSpec,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.experiments.scenarios import ScenarioConfig, build_scenario
from repro.sim.core import Simulator
from repro.sweep import SweepEngine, SweepSpec
from repro.sweep.engine import SweepOutcome

#: Modules the simulator workloads import (timed in a fresh process).
SIM_IMPORTS = ("repro.experiments.figures", "repro.sweep")

#: SHA-256 of the canonical result rows of one pass at the default seed
#: (the rows an unsliced, unwrapped run of the same configs returns).
PINNED_DIGESTS = {
    "fig4_grid":
        "bf17c868edeaa7076081355827cdfb7b6064423313381c197a7a44a7cee41af5",
    "fig5_tcp":
        "0718db96c8d5faa681d4693530fb7ed236374d46c808007552940ca3c6a8f071",
    "campus_1k":
        "15f81575a729f70f741d8036b6d5a946bdba897969930c652f94bbfd516b1d92",
}

#: Simulated seconds per campus slice (the kernel runs between slices).
CAMPUS_SLICE_S = 0.25


class SlicedEngine:
    """A sweep engine that hands the real engine (no cache) one run at
    a time, with a meter checkpoint after each.

    Each experiment gets its own seed, ``seed * len(spec) + index``:
    under one shared seed every experiment of a grid replays the same
    web script and traces, so one seed's draw tilts the whole grid's
    cost, and the spread across seeds is the spread of one draw.
    ``limit`` runs only the first runs of a spec; the figure drivers
    then build rows for those alone.
    """

    def __init__(
        self, meter: Optional[Meter] = None, limit: Optional[int] = None
    ) -> None:
        self.engine = SweepEngine()
        self.meter = meter
        self.limit = limit
        #: The configs of every run of the last spec, own seeds applied.
        self.configs: list[ExperimentConfig] = []
        #: Runs so far, and the medium's frames sent and missed in them,
        #: tallied as each result arrives: no result outlives its spec.
        self.runs = 0
        self.frames = 0
        self.misses = 0

    def run(self, spec: SweepSpec) -> SweepOutcome:
        self.configs = [
            dataclasses.replace(
                run.params["config"],
                seed=run.params["config"].seed * len(spec) + run.index,
            )
            for run in spec.runs
        ]
        results = []
        for run, config in list(zip(spec.runs, self.configs))[: self.limit]:
            single = SweepSpec(
                spec.name,
                (dataclasses.replace(run, index=0, params={"config": config}),),
            )
            result = self.engine.run(single).results[0]
            self.runs += 1
            self.frames += result.medium_frames
            self.misses += result.medium_misses
            results.append(result)
            if self.meter is not None:
                self.meter.checkpoint(str(run.index))
        return SweepOutcome(
            spec=spec, results=results, report=self.engine.combined_report()
        )

    @property
    def cache_hits(self) -> int:
        return sum(report.cache_hits for report in self.engine.reports)


def _scenario_of(config: ExperimentConfig) -> ScenarioConfig:
    """The scenario ``run_experiment`` builds first for ``config``."""
    return ScenarioConfig(
        n_clients=len(config.clients), seed=config.seed,
        obs_mode=config.obs_mode, campus=config.campus,
    )


def _setup(config: ExperimentConfig) -> tuple[float, float, dict]:
    """Import in a fresh process plus the first scenario build."""
    import_norm, import_raw = import_seconds(SIM_IMPORTS)
    build_norm, build_raw = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = kernel_sample()
        started = time.process_time()
        build_scenario(_scenario_of(config))
        seconds = time.process_time() - started
        build_raw.append(seconds)
        build_norm.append(normalise(seconds, (before + kernel_sample()) / 2.0))
    gc.collect()
    return setup_record(import_norm, import_raw, build_norm, build_raw)


def _client_seconds(configs: list[ExperimentConfig]) -> float:
    return sum(len(c.clients) * c.duration_s for c in configs)


def _miss_ratio(frames: int, misses: int) -> float:
    return misses / frames if frames else 0.0


def _failed_rows(
    name: str, seed: int, rows: list[dict], saved_keys: tuple[str, ...],
    problems: list[str],
) -> int:
    """How many of one pass's rows are wrong; appends the reasons.

    At the default seed the pass must match its pinned digest (all rows
    fail if not); every row must show savings in (0, 100].
    """
    if seed == DEFAULT_SEED and digest(rows) != PINNED_DIGESTS[name]:
        problems.append(f"{name}: digest {digest(rows)} is not the pin")
        return len(rows)
    failed = 0
    for row in rows:
        bad = [key for key in saved_keys if not 0.0 < row[key] <= 100.0]
        if bad:
            problems.append(f"{name}: {bad} outside (0, 100] in {row}")
            failed += 1
    return failed


# -- the figure grids -------------------------------------------------------

GRIDS: dict[str, tuple[Callable[..., list[dict]], tuple[str, ...]]] = {
    "fig4_grid": (figures.figure4, ("avg_saved_pct",)),
    "fig5_tcp": (figures.figure5, ("udp_avg_saved_pct", "tcp_avg_saved_pct")),
}


def grid_rows(name: str, seed: int, engine: Any) -> list[dict]:
    """One pass of a quick figure grid through ``engine``."""
    driver, _ = GRIDS[name]
    return driver(seed=seed, quick=True, engine=engine)


def run_grid(
    name: str, seed: int, seconds: float, tracer: Optional[LayerTracer]
) -> Measured:
    """Whole passes of a quick figure grid until ``seconds`` have
    passed; ``run_s`` sums each experiment's median normalised CPU."""
    _, saved_keys = GRIDS[name]
    probe = SlicedEngine(limit=0)
    grid_rows(name, seed, probe)
    configs = probe.configs
    setup_s, setup_raw, record = _setup(configs[0])

    grid_rows(name, seed, SlicedEngine(limit=1))  # untimed warm-up
    gc.collect()

    scope, exclude = guards(tracer)
    meter = Meter(exclude, collect=True)
    problems: list[str] = []
    passes = runs = frames = misses = cache_hits = failed = 0
    rows: list[dict] = []
    began = time.perf_counter()
    with scope:
        while not passes or time.perf_counter() - began < seconds:
            # A fresh engine per pass, dropped after it: what the run
            # holds in memory is one pass's, however many passes fit.
            engine = SlicedEngine(meter)
            rows = grid_rows(name, seed, engine)
            failed += _failed_rows(name, seed, rows, saved_keys, problems)
            passes += 1
            runs += engine.runs
            frames += engine.frames
            misses += engine.misses
            cache_hits += engine.cache_hits
    by_config: dict[str, list] = {}
    for unit in meter.units:
        by_config.setdefault(unit.label, []).append(unit)
    return Measured(
        setup_s=setup_s, setup_raw_s=setup_raw,
        run_s=sum(
            statistics.median(u.norm_s for u in units)
            for units in by_config.values()
        ),
        run_raw_s=sum(
            statistics.median(u.cpu_s for u in units)
            for units in by_config.values()
        ),
        client_s=_client_seconds(configs),
        attempted=runs,
        failed=failed,
        passes=passes,
        counters={
            "net.medium.miss_ratio": _miss_ratio(frames, misses),
            "sweep.cache_hits": cache_hits,
        },
        record={
            **record,
            "passes": passes,
            "digest": digest(rows),
            "problems": problems,
            "units": [dataclasses.asdict(u) for u in meter.units],
            "kernel_s": meter.kernel,
        },
    )


# -- the campus smoke -------------------------------------------------------


def campus_config(seed: int, clients: int = 1000, duration_s: float = 6.0):
    """``repro run --cells 4 --roam-rate 0.05 --clients 1000 --quick
    --obs metrics`` as a config."""
    return ExperimentConfig(
        clients=[ClientSpec("video", video_kbps=56)] * clients,
        burst_interval_s=0.5,
        duration_s=duration_s,
        start_stagger_s=0.003,
        seed=seed,
        campus=CampusTopology(
            n_cells=4,
            mobility=MobilityPlan(roam_rate=0.05, epoch_s=1.0),
            handoff=HandoffSpec(policy="transfer", latency_s=0.02),
        ),
        obs_mode="metrics",
    )


def campus_rows(result: ExperimentResult) -> list[dict]:
    """The canonical result rows of a campus run."""
    summary = result.summary
    return [
        {
            "avg_saved_pct": summary.avg_saved_pct,
            "min_saved_pct": summary.min_saved_pct,
            "max_saved_pct": summary.max_saved_pct,
            "avg_loss_pct": summary.avg_loss_pct,
            "handoffs": result.handoffs,
            "handoff_bytes_transferred": result.handoff_bytes_transferred,
            "handoff_bytes_dropped": result.handoff_bytes_dropped,
            "schedules_sent": result.schedules_sent,
            "medium_frames": result.medium_frames,
            "medium_misses": result.medium_misses,
            "peak_proxy_buffer_bytes": result.peak_proxy_buffer_bytes,
        }
    ] + [
        {
            "client": r.name,
            "saved_pct": r.energy_saved_pct,
            "loss_pct": r.loss_pct,
        }
        for r in result.reports
    ]


@contextmanager
def sliced_simulation(meter: Meter) -> Iterator[None]:
    """``Simulator.run(until=t)`` runs in slices of simulated time,
    with a meter checkpoint before the first slice and after each."""
    inner = Simulator.__dict__["run"]

    def run(sim: Simulator, until: Optional[float] = None) -> None:
        if until is None:
            inner(sim)
            return
        meter.checkpoint("build")
        start = sim.now
        step = 1
        while sim.now < until:
            inner(sim, until=min(until, start + step * CAMPUS_SLICE_S))
            meter.checkpoint("simulate")
            step += 1

    Simulator.run = run  # type: ignore[method-assign]
    try:
        yield
    finally:
        Simulator.run = inner  # type: ignore[method-assign]


def run_campus(
    seed: int, seconds: float, tracer: Optional[LayerTracer]
) -> Measured:
    """One 4-cell, 1000-client roaming run, metered slice by slice.

    It is one pass whatever ``seconds`` says: repeating it in one
    process slows it while the kernel stays flat.
    """
    config = campus_config(seed)
    setup_s, setup_raw, record = _setup(config)
    run_experiment(campus_config(seed, clients=40, duration_s=1.0))  # warm-up
    gc.collect()

    scope, exclude = guards(tracer)
    meter = Meter(exclude)
    with scope, sliced_simulation(meter):
        result = run_experiment(config)
        meter.checkpoint("analyze")
    rows = campus_rows(result)
    problems: list[str] = []
    if seed == DEFAULT_SEED and digest(rows) != PINNED_DIGESTS["campus_1k"]:
        problems.append(f"campus_1k: digest {digest(rows)} is not the pin")
    if not 0.0 < result.summary.avg_saved_pct <= 100.0:
        problems.append(f"campus_1k: saved {result.summary.avg_saved_pct!r}")
    if result.handoffs <= 0:
        problems.append("campus_1k: no handoffs")
    phases: dict[str, float] = {}
    for unit in meter.units:
        phases[unit.label] = phases.get(unit.label, 0.0) + unit.norm_s
    return Measured(
        setup_s=setup_s, setup_raw_s=setup_raw,
        run_s=sum(unit.norm_s for unit in meter.units),
        run_raw_s=sum(unit.cpu_s for unit in meter.units),
        client_s=_client_seconds([config]),
        attempted=1,
        failed=1 if problems else 0,
        counters={
            "net.medium.miss_ratio": _miss_ratio(
                result.medium_frames, result.medium_misses
            ),
            "sweep.cache_hits": 0,
        },
        record={
            **record,
            "phases_norm_s": phases,
            "handoffs": result.handoffs,
            "digest": digest(rows),
            "problems": problems,
            "units": [dataclasses.asdict(u) for u in meter.units],
            "kernel_s": meter.kernel,
        },
    )
