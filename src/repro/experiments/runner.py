"""Experiment runner: configuration → scenario → workloads → reports.

The runner is the one place where all the pieces meet: it wires the
testbed (:mod:`~repro.experiments.scenarios`), the scheduling policy,
the client daemons and the workloads, runs the simulation, and feeds
the monitoring station's capture through the energy analyzer — the
exact pipeline of the paper's §4.1.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.campus import CampusTopology
from repro.core.bandwidth_model import calibrate
from repro.core.client import DEFAULT_FALLBACK_AFTER_MISSES, PowerAwareClient
from repro.core.delay_comp import AdaptiveCompensator, FixedClockCompensator
from repro.core.policy import POLICY_NAMES, make_policy
from repro.core.proxy import TCP_MODES
from repro.core.scheduler import DynamicScheduler
from repro.core.static_schedule import StaticClient, StaticScheduler, build_layout
from repro.energy.analyzer import EnergyAnalyzer
from repro.energy.optimal import optimal_energy_saved_pct
from repro.energy.report import ClientReport, ExperimentSummary, summarize
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.net.addr import Endpoint
from repro.net.channel import ChannelPlan
from repro.obs import NULL_RECORDER, Recorder
from repro.units import mib
from repro.wnic.power import WAVELAN_2_4GHZ
from repro.workloads.ftp import FTP_PORT, FtpClientApp, FtpServerApp
from repro.workloads.video import (
    VIDEO_PORT,
    VideoClientApp,
    VideoServerApp,
    VideoStreamConfig,
)
from repro.workloads.web import HTTP_PORT, WebClientApp, WebScript, WebServerApp

from repro.experiments.scenarios import (
    FTP_SERVER_IP,
    ScenarioConfig,
    VIDEO_SERVER_IP,
    WEB_SERVER_IP,
    build_scenario,
    client_ip,
)


@dataclass(frozen=True, slots=True)
class ClientSpec:
    """What one client does during the experiment."""

    kind: str  # "video" | "web" | "ftp"
    video_kbps: int = 56
    ftp_bytes: int = mib(2)
    web_pages: int = 40

    def __post_init__(self) -> None:
        if self.kind not in ("video", "web", "ftp"):
            raise ConfigurationError(f"unknown client kind: {self.kind!r}")


@dataclass
class ExperimentConfig:
    """Full description of one experiment run."""

    clients: list[ClientSpec] = field(
        default_factory=lambda: [ClientSpec("video")] * 10
    )
    #: Fixed burst interval in seconds, or None for the variable policy.
    burst_interval_s: Optional[float] = 0.5
    scheduler: str = "dynamic"  # "dynamic" | "static"
    static_tcp_weight: float = 0.0
    early_s: float = 0.006
    compensator: str = "adaptive"  # "adaptive" | "fixed"
    fixed_clock_offset_error_s: float = 0.0
    duration_s: float = 119.0
    warmup_s: float = 0.5
    start_stagger_s: float = 1.0  # paper: requests spaced ~1 s apart
    seed: int = 0
    reuse_schedules: bool = False
    adaptive_video: bool = True
    #: How the proxy handles TCP (see TransparentProxy). "bridge" passes
    #: TCP through unscheduled, so its clients stay naive (always awake)
    #: lest a sleeping card miss its data.
    tcp_mode: str = "split"
    #: Deterministic fault-injection plan (see :mod:`repro.faults`).
    #: Threaded into the scenario, the scheduler's slot-reclamation
    #: timeout and every client's fallback/clock-error wiring.
    faults: Optional[FaultPlan] = None
    #: Slot-admission policy ("dynamic" | "channel" | "joint"); only
    #: meaningful with the dynamic scheduler. "dynamic" reproduces the
    #: paper byte-for-byte.
    policy: str = "dynamic"
    #: Backlog threshold (bytes) for the joint policy's bad-channel arm.
    policy_threshold_bytes: int = 1
    #: Max consecutive intervals the channel policy defers a client.
    policy_max_defer: int = 2
    #: Per-client channel model plan (see :mod:`repro.net.channel`).
    channel: Optional[ChannelPlan] = None
    #: Multi-cell campus topology (see :mod:`repro.campus`). None (or a
    #: trivial topology) reproduces the single-cell testbed exactly.
    campus: Optional[CampusTopology] = None
    #: False reproduces the paper's postmortem mode: clients receive
    #: even while "asleep", and drops are computed offline (§4.3).
    enforce_sleep_drops: bool = True
    #: Observability mode, a key of :data:`repro.obs.OBS_MODES`.
    obs_mode: str = "full"

    def __post_init__(self) -> None:
        if self.scheduler not in ("dynamic", "static"):
            raise ConfigurationError(f"unknown scheduler: {self.scheduler!r}")
        if self.compensator not in ("adaptive", "fixed"):
            raise ConfigurationError(f"unknown compensator: {self.compensator!r}")
        if self.tcp_mode not in TCP_MODES:
            raise ConfigurationError(f"unknown tcp_mode: {self.tcp_mode!r}")
        if self.policy not in POLICY_NAMES:
            raise ConfigurationError(f"unknown policy: {self.policy!r}")
        if self.policy != "dynamic" and self.scheduler != "dynamic":
            raise ConfigurationError(
                "slot-admission policies require the dynamic scheduler"
            )
        if not self.clients:
            raise ConfigurationError("experiment needs at least one client")
        if self.scheduler == "static" and self.burst_interval_s is None:
            raise ConfigurationError("static scheduling needs a fixed interval")
        if self.burst_interval_s is not None and not (
            0 < self.burst_interval_s < math.inf
        ):
            raise ConfigurationError(
                "burst interval must be positive and finite: "
                f"{self.burst_interval_s!r}"
            )
        if not 0.0 <= self.static_tcp_weight < 1.0:
            raise ConfigurationError(
                f"static TCP weight must be in [0, 1): {self.static_tcp_weight!r}"
            )
        if self.policy_threshold_bytes < 0:
            raise ConfigurationError(
                "policy threshold must be non-negative: "
                f"{self.policy_threshold_bytes!r}"
            )
        if self.policy_max_defer < 0:
            raise ConfigurationError(
                f"policy max defer must be non-negative: {self.policy_max_defer!r}"
            )
        if (
            self.campus is not None
            and self.campus.n_cells > 1
            and self.scheduler != "dynamic"
        ):
            raise ConfigurationError(
                "multi-cell campus scheduling requires the dynamic scheduler"
            )


@dataclass
class ExperimentResult:
    """Everything measured in one run."""

    config: ExperimentConfig
    reports: list[ClientReport]
    summary: ExperimentSummary
    video_summary: ExperimentSummary
    tcp_summary: ExperimentSummary
    peak_proxy_buffer_bytes: int
    schedules_sent: int
    schedules_reused: int
    medium_frames: int
    medium_misses: int
    downshifts: int
    duration_s: float
    #: Unified per-fault/drop counters (empty dict when nothing dropped).
    fault_counters: dict = field(default_factory=dict)
    #: Burst slots reclaimed from / restored to silent clients.
    slots_reclaimed: int = 0
    slots_restored: int = 0
    #: Slot-admission policy that ran ("dynamic" unless configured).
    policy: str = "dynamic"
    #: Slots granted / deferred by the admission policy.
    policy_grants: int = 0
    policy_defers: int = 0
    #: Byte-weighted mean time data sat in the proxy's client queues.
    mean_queue_delay_s: float = 0.0
    #: Campus shape and handoff accounting (cells == 1 outside campus
    #: runs; the byte counters follow the configured handoff policy).
    cells: int = 1
    handoffs: int = 0
    handoff_bytes_transferred: int = 0
    handoff_bytes_dropped: int = 0
    #: The run's recorder, which holds its events, spans and metrics
    #: for export postmortem.
    obs: Recorder = NULL_RECORDER

    @property
    def clients(self) -> list[ClientReport]:
        """Alias used throughout the examples."""
        return self.reports


def video_only(
    bitrates_kbps: list[int],
    burst_interval_s: Optional[float] = 0.5,
    **overrides,
) -> ExperimentConfig:
    """The Figure 4 configurations: N video clients."""
    return ExperimentConfig(
        clients=[ClientSpec("video", video_kbps=rate) for rate in bitrates_kbps],
        burst_interval_s=burst_interval_s,
        **overrides,
    )


def mixed(
    video_bitrates_kbps: list[int],
    n_web: int,
    burst_interval_s: Optional[float] = 0.5,
    **overrides,
) -> ExperimentConfig:
    """The Figure 5 configurations: video + web clients."""
    clients = [ClientSpec("video", video_kbps=r) for r in video_bitrates_kbps]
    clients += [ClientSpec("web")] * n_web
    return ExperimentConfig(
        clients=clients, burst_interval_s=burst_interval_s, **overrides
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one experiment end to end and analyze it."""
    # A scenario's nodes, interfaces and links point at each other, so
    # only a full collection frees the previous run's; Simulator.run
    # pauses the collector, so without this pass they would stay alive
    # through the whole next run.
    gc.collect()
    plan = config.faults
    scenario = build_scenario(
        ScenarioConfig(
            n_clients=len(config.clients),
            seed=config.seed,
            tcp_mode=config.tcp_mode,
            faults=plan,
            channel=config.channel,
            obs_mode=config.obs_mode,
            campus=config.campus,
        )
    )
    sim = scenario.sim
    cost_model = calibrate(scenario.medium)

    # -- scheduling policy ---------------------------------------------------
    # One scheduler per proxy shard; single-cell runs see exactly the
    # legacy wiring (one cell, one scheduler).
    if config.scheduler == "dynamic":
        schedulers = []
        for cell in scenario.cells:
            sched = DynamicScheduler(
                cell.proxy,
                cost_model,
                interval_s=config.burst_interval_s,
                reuse_schedules=config.reuse_schedules,
                silence_timeout_s=(
                    plan.silence_timeout_s if plan is not None else None
                ),
                policy=make_policy(
                    config.policy,
                    threshold=config.policy_threshold_bytes,
                    max_defer=config.policy_max_defer,
                ),
            )
            cell.scheduler = sched
            schedulers.append(sched)
    else:
        udp_ips = [
            client_ip(i)
            for i, spec in enumerate(config.clients)
            if spec.kind == "video"
        ]
        tcp_ips = [
            client_ip(i)
            for i, spec in enumerate(config.clients)
            if spec.kind != "video"
        ]
        layout = build_layout(
            udp_ips or [client_ip(i) for i in range(len(config.clients))],
            interval_s=config.burst_interval_s,
            tcp_weight=config.static_tcp_weight,
            tcp_clients=tcp_ips,
        )
        schedulers = [StaticScheduler(scenario.proxy, cost_model, layout)]
    for cell, sched in zip(scenario.cells, schedulers):
        cell.proxy.attach_scheduler(sched)
        cell.proxy.start()
    if scenario.mobility is not None:
        scenario.mobility.start()

    # -- client daemons -----------------------------------------------------
    for handle in scenario.clients:
        if config.tcp_mode == "bridge":
            continue  # unscheduled TCP: the card stays in high-power mode
        if config.scheduler == "dynamic":
            if config.compensator == "adaptive":
                compensator = AdaptiveCompensator(early_s=config.early_s)
            else:
                compensator = FixedClockCompensator(
                    early_s=config.early_s,
                    clock_offset_estimate_s=config.fixed_clock_offset_error_s,
                )
            if scenario.faults is not None:
                compensator = scenario.faults.compensator_for(
                    handle.index, compensator
                )
            handle.daemon = PowerAwareClient(
                handle.node, handle.wnic, compensator, obs=scenario.obs,
                enforce_sleep_drops=config.enforce_sleep_drops,
                fallback_after_misses=(
                    plan.fallback_after_misses
                    if plan is not None
                    else DEFAULT_FALLBACK_AFTER_MISSES
                ),
            )
        else:
            handle.daemon = StaticClient(
                handle.node, handle.wnic, early_s=config.early_s,
                obs=scenario.obs,
            )

    # -- workloads ------------------------------------------------------------
    video_apps: dict[int, tuple[VideoServerApp, VideoClientApp]] = {}
    web_apps: dict[int, WebClientApp] = {}
    ftp_apps: dict[int, FtpClientApp] = {}
    if any(spec.kind == "web" for spec in config.clients):
        WebServerApp(scenario.web_server)
    if any(spec.kind == "ftp" for spec in config.clients):
        FtpServerApp(scenario.ftp_server)

    for index, spec in enumerate(config.clients):
        handle = scenario.clients[index]
        start_at = config.warmup_s + index * config.start_stagger_s
        if spec.kind == "video":
            stream_config = VideoStreamConfig(
                nominal_kbps=spec.video_kbps,
                duration_s=config.duration_s,
                adaptive=config.adaptive_video,
            )
            server_app = VideoServerApp(
                scenario.video_server,
                Endpoint(handle.node.ip, VIDEO_PORT),
                stream_config,
                rng=scenario.streams.get(f"video:{index}"),
                stream_id=index,
                start_at=start_at,
            )
            client_app = VideoClientApp(
                handle.node,
                Endpoint(VIDEO_SERVER_IP, VIDEO_PORT),
                feedback_endpoint=server_app.feedback_endpoint
                if config.adaptive_video
                else None,
                report_offset_s=0.05 + 0.293 * index,
            )
            video_apps[index] = (server_app, client_app)
        elif spec.kind == "web":
            script = WebScript.generate(
                scenario.streams.get(f"web:{index}"), n_pages=spec.web_pages
            )
            web_apps[index] = WebClientApp(
                handle.node,
                Endpoint(WEB_SERVER_IP, HTTP_PORT),
                script,
                start_at=start_at,
                stop_at=config.warmup_s + config.duration_s,
            )
        else:
            ftp_apps[index] = FtpClientApp(
                handle.node,
                Endpoint(FTP_SERVER_IP, FTP_PORT),
                file_size=spec.ftp_bytes,
                start_at=start_at,
            )

    # -- run --------------------------------------------------------------------
    horizon = config.warmup_s + config.duration_s + 2.0
    sim.run(until=horizon)

    # -- analyze -------------------------------------------------------------------
    if len(scenario.cells) > 1:
        # One monitor per cell: merge the captures into a single
        # campus-wide timeline (ties broken by cell index, then by
        # capture order within the cell), and hand the analyzer the
        # roaming timeline so broadcast receive energy is only charged
        # to clients resident in the frame's cell.
        keyed = [
            ((frame.end, cell.index, position), frame)
            for cell in scenario.cells
            for position, frame in enumerate(cell.monitor.frames)
        ]
        keyed.sort(key=lambda item: item[0])
        frames = tuple(frame for _, frame in keyed)
        residency = (
            scenario.mobility.residency()
            if scenario.mobility is not None
            else None
        )
    else:
        frames = scenario.monitor.frames
        residency = None
    analyzer = EnergyAnalyzer(
        frames,
        WAVELAN_2_4GHZ,
        duration_s=sim.now,
        misses=[
            miss for cell in scenario.cells for miss in cell.medium.data_misses
        ],
        residency=residency,
    )
    effective_rate = cost_model.effective_rate_bps(mss=700)
    reports: list[ClientReport] = []
    downshifts = 0
    for index, spec in enumerate(config.clients):
        handle = scenario.clients[index]
        optimal_pct = None
        extra: dict = {}
        if spec.kind == "video":
            server_app, client_app = video_apps[index]
            downshifts += server_app.downshifts
            optimal_pct = optimal_energy_saved_pct(
                server_app.bytes_sent, sim.now, effective_rate, WAVELAN_2_4GHZ
            )
            extra = {
                "app_bytes": client_app.bytes_received,
                "downshifts": server_app.downshifts,
                "app_loss": client_app.loss_fraction,
            }
        elif spec.kind == "web":
            app = web_apps[index]
            optimal_pct = optimal_energy_saved_pct(
                app.bytes_received,
                sim.now,
                cost_model.effective_rate_bps(),
                WAVELAN_2_4GHZ,
            )
            extra = {
                "app_bytes": app.bytes_received,
                "pages_loaded": app.pages_loaded,
                "objects_loaded": app.objects_loaded,
                "mean_object_latency_s": app.mean_object_latency,
            }
        else:
            app = ftp_apps[index]
            optimal_pct = optimal_energy_saved_pct(
                app.bytes_received,
                sim.now,
                cost_model.effective_rate_bps(),
                WAVELAN_2_4GHZ,
            )
            extra = {
                "app_bytes": app.bytes_received,
                "done": app.done,
                "transfer_time_s": app.transfer_time_s,
            }
        counters = getattr(handle.daemon, "counters", None) or {}
        if counters.get("fallbacks") or counters.get("resyncs"):
            extra["fallbacks"] = counters["fallbacks"]
            extra["resyncs"] = counters["resyncs"]
        reports.append(
            analyzer.analyze(
                name=handle.node.name,
                ip=handle.node.ip,
                wnic=handle.wnic,
                kind=spec.kind,
                optimal_saved_pct=optimal_pct,
                missed_schedules=counters.get("missed_schedules", 0),
                schedules_heard=counters.get("schedules_heard", 0),
                early_wait_s=counters.get(
                    "early_wait_s", getattr(handle.daemon, "early_wait_s", 0.0)
                ),
                miss_recovery_s=counters.get("miss_recovery_s", 0.0),
                extra=extra,
            )
        )

    video_reports = [r for r in reports if r.kind == "video"]
    tcp_reports = [r for r in reports if r.kind in ("web", "ftp")]
    drop_totals = scenario.counters.totals()

    # -- final observability rollups ----------------------------------------
    obs = scenario.obs
    obs.gauge("sim.duration_s").set(sim.now)
    for handle in scenario.clients:
        awake = handle.wnic.awake_time(sim.now)
        ip = handle.node.ip
        obs.gauge("wnic.residency_s", client=ip, state="awake").set(awake)
        obs.gauge("wnic.residency_s", client=ip, state="sleep").set(
            sim.now - awake
        )
        obs.gauge("wnic.wake_count", client=ip).set(handle.wnic.wake_count)
    for reason, count in sorted(drop_totals.items()):
        obs.counter("drops", reason=reason).inc(count)
    planners = [
        sched.planner for sched in schedulers
        if isinstance(sched, DynamicScheduler)
    ]
    delay_byte_s = 0.0
    dequeued_bytes = 0
    for cell in scenario.cells:
        cell_delay, cell_dequeued = cell.proxy.queue_delay_totals()
        delay_byte_s += cell_delay
        dequeued_bytes += cell_dequeued
    return ExperimentResult(
        config=config,
        reports=reports,
        summary=summarize(reports, drops=drop_totals),
        video_summary=summarize(video_reports),
        tcp_summary=summarize(tcp_reports),
        peak_proxy_buffer_bytes=sum(
            cell.proxy.peak_buffered_bytes for cell in scenario.cells
        ),
        schedules_sent=sum(
            getattr(s, "schedules_sent", 0) for s in schedulers
        ),
        schedules_reused=sum(p.schedules_reused for p in planners),
        medium_frames=sum(
            cell.medium.frames_sent for cell in scenario.cells
        ),
        medium_misses=sum(
            cell.medium.frames_missed for cell in scenario.cells
        ),
        downshifts=downshifts,
        duration_s=sim.now,
        fault_counters=drop_totals,
        slots_reclaimed=sum(p.slots_reclaimed for p in planners),
        slots_restored=sum(p.slots_restored for p in planners),
        policy=config.policy,
        policy_grants=sum(p.policy_grants for p in planners),
        policy_defers=sum(p.policy_defers for p in planners),
        mean_queue_delay_s=(
            delay_byte_s / dequeued_bytes if dequeued_bytes else 0.0
        ),
        cells=len(scenario.cells),
        handoffs=(
            scenario.handoff.handoffs if scenario.handoff is not None else 0
        ),
        handoff_bytes_transferred=(
            scenario.handoff.bytes_transferred
            if scenario.handoff is not None
            else 0
        ),
        handoff_bytes_dropped=(
            scenario.handoff.bytes_dropped
            if scenario.handoff is not None
            else 0
        ),
        obs=obs,
    )
