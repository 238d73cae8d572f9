"""Drivers for the paper's non-figure results and the ablations.

Covers the TCP-only experiment (§4.2, text), the optimal comparison
(§4.3), static-vs-dynamic (§4.3), the packet-drop experiments (§4.3,
Netfilter and DummyNet), the proxy memory claim (§3.2.2), the §5
schedule-reuse future-work extension, and the split-connection
ablation motivating the proxy's double-connection design (§2, §3.2).

Like :mod:`~repro.experiments.figures`, every driver expands its runs
into a :class:`~repro.sweep.SweepSpec` and executes through a
:class:`~repro.sweep.SweepEngine` (``SWP001`` forbids calling the
runner directly), so all tables share the sweep cache and fan-out.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments import claims
from repro.experiments.runner import (
    ClientSpec,
    ExperimentConfig,
    video_only,
)
from repro.net.addr import Endpoint
from repro.net.node import Node
from repro.net.shaper import DummyNetPipe
from repro.net.tcp import TcpConnection, TcpListener
from repro.sim import RngStreams, Simulator
from repro.sweep import SweepEngine, SweepSpec
from repro.units import mbps, mib, ms


def _duration(quick: bool) -> float:
    return 30.0 if quick else 119.0


def _engine(engine: Optional[SweepEngine]) -> SweepEngine:
    return engine if engine is not None else SweepEngine()


def tcp_only(
    seed: int = 0, quick: bool = False,
    engine: Optional[SweepEngine] = None,
) -> list[dict]:
    """E2 — §4.2 text: all clients browsing the web (70-80 % savings)."""
    n = 3 if quick else 10
    intervals = (("100ms", 0.1), ("500ms", 0.5), ("variable", None))
    configs = [
        ExperimentConfig(
            clients=[ClientSpec("web")] * n,
            burst_interval_s=interval,
            duration_s=_duration(quick),
            seed=seed,
        )
        for _, interval in intervals
    ]
    labels = [{"interval": label} for label, _ in intervals]
    outcome = _engine(engine).run(
        SweepSpec.experiments("tcp_only", configs, labels)
    )
    return [
        {
            "experiment": "tcp-only",
            "interval": label["interval"],
            "avg_saved_pct": result.tcp_summary.avg_saved_pct,
            "min_saved_pct": result.tcp_summary.min_saved_pct,
            "max_saved_pct": result.tcp_summary.max_saved_pct,
            "avg_loss_pct": result.tcp_summary.avg_loss_pct,
            "pages_loaded": sum(
                r.extra.get("pages_loaded", 0) for r in result.reports
            ),
        }
        for label, result in zip(labels, outcome.results)
    ]


def optimal_comparison(
    seed: int = 0, quick: bool = False,
    engine: Optional[SweepEngine] = None,
) -> list[dict]:
    """E4 — §4.3: measured savings versus the closed-form optimum.

    Each row carries the paper's optimum and measured value for its
    stream (56K/256K/512K video-only at 500 ms), from :mod:`claims`.
    """
    n = 4 if quick else 10
    rates = (56, 256, 512)
    configs = [
        video_only(
            [rate] * n, burst_interval_s=0.5,
            duration_s=_duration(quick), seed=seed,
        )
        for rate in rates
    ]
    labels = [
        {
            "rate": rate,
            "paper_optimal": claims.OPTIMUM[f"{rate}K"],
            "paper_measured": claims.FIGURE4_500MS[f"{rate}K"],
        }
        for rate in rates
    ]
    outcome = _engine(engine).run(
        SweepSpec.experiments("optimal_comparison", configs, labels)
    )
    rows = []
    for label, result in zip(labels, outcome.results):
        optima = [
            r.optimal_saved_pct for r in result.reports
            if r.optimal_saved_pct is not None
        ]
        rows.append(
            {
                "experiment": "optimal-comparison",
                "stream": f"{label['rate']}K",
                "optimal_pct": sum(optima) / len(optima),
                "measured_pct": result.video_summary.avg_saved_pct,
                "gap_pct": sum(optima) / len(optima)
                - result.video_summary.avg_saved_pct,
                "paper_optimal_pct": label["paper_optimal"],
                "paper_measured_pct": label["paper_measured"],
            }
        )
    return rows


def static_vs_dynamic(
    seed: int = 0, quick: bool = False,
    engine: Optional[SweepEngine] = None,
) -> list[dict]:
    """E7 — §4.3: static TDMA beats dynamic for identical streams."""
    n = 4 if quick else 10
    rates = (56, 256, 512)
    schedulers = ("static", "dynamic")
    configs = [
        ExperimentConfig(
            clients=[ClientSpec("video", video_kbps=rate)] * n,
            burst_interval_s=0.1,
            scheduler=scheduler,
            duration_s=_duration(quick),
            seed=seed,
            adaptive_video=False,
        )
        for rate in rates
        for scheduler in schedulers
    ]
    labels = [
        {"rate": rate, "scheduler": scheduler}
        for rate in rates
        for scheduler in schedulers
    ]
    outcome = _engine(engine).run(
        SweepSpec.experiments("static_vs_dynamic", configs, labels)
    )
    by_cell = {
        (label["rate"], label["scheduler"]): result
        for label, result in zip(labels, outcome.results)
    }
    rows = []
    for rate in rates:
        cells = {}
        for scheduler in schedulers:
            result = by_cell[(rate, scheduler)]
            saved = [r.energy_saved_pct for r in result.reports]
            mean = sum(saved) / len(saved)
            variance = sum((s - mean) ** 2 for s in saved) / len(saved)
            cells[scheduler] = (mean, variance)
        rows.append(
            {
                "experiment": "static-vs-dynamic",
                "stream": f"{rate}K",
                "static_avg_saved_pct": cells["static"][0],
                "static_variance": cells["static"][1],
                "dynamic_avg_saved_pct": cells["dynamic"][0],
                "dynamic_variance": cells["dynamic"][1],
            }
        )
    return rows


def drop_effect_netfilter(
    seed: int = 0, quick: bool = False,
    engine: Optional[SweepEngine] = None,
) -> list[dict]:
    """E9a — §4.3: dropping packets while asleep versus receiving them.

    The paper configured Netfilter to really drop packets destined to a
    sleeping card and found transfers took no more than ~10 % longer.
    We run the same FTP download twice per early-transition setting:
    once with the physical receive gate enforced, once with it disabled
    (the paper's default postmortem mode), and compare transfer times.
    The aggressive ``early=0`` row forces misses so the comparison
    exercises real drops.
    """
    size = mib(1) if quick else mib(4)
    # The paper's setup is the single client ("we ran separate
    # experiments with one client and Netfilter"); the contended
    # variant adds background video so the transfer spans many
    # sleep/wake cycles and drops actually occur.
    background = [ClientSpec("video", video_kbps=256)] * (2 if quick else 4)
    setups = (("single-client", []), ("contended", background))
    gates = ((True, "drops_enforced"), (False, "receive_anyway"))
    configs = []
    labels = []
    for label_cfg, extra_clients in setups:
        for enforce, gate_label in gates:
            configs.append(
                ExperimentConfig(
                    clients=extra_clients + [ClientSpec("ftp", ftp_bytes=size)],
                    burst_interval_s=0.5,
                    duration_s=60.0 if quick else 119.0,
                    seed=seed,
                    enforce_sleep_drops=enforce,
                )
            )
            labels.append({"setup": label_cfg, "gate": gate_label})
    outcome = _engine(engine).run(
        SweepSpec.experiments("drop_effect_netfilter", configs, labels)
    )
    times: dict[str, dict[str, Optional[float]]] = {}
    for label, result in zip(labels, outcome.results):
        times.setdefault(label["setup"], {})[label["gate"]] = (
            result.reports[-1].extra.get("transfer_time_s")
        )
    rows = []
    for label_cfg, _ in setups:
        cell = times[label_cfg]
        slowdown = None
        if cell["receive_anyway"] and cell["drops_enforced"]:
            slowdown = cell["drops_enforced"] / cell["receive_anyway"] - 1.0
        rows.append(
            {
                "experiment": "drop-effect-netfilter",
                "setup": label_cfg,
                "transfer_s_drops_enforced": cell["drops_enforced"],
                "transfer_s_receive_anyway": cell["receive_anyway"],
                "slowdown_fraction": slowdown,
            }
        )
    return rows


def _dummynet_transfer(
    seed: int, transfer_bytes: int, plr: float
) -> float:
    """One TCP transfer over a 4 Mb/s DummyNet pipe; returns the
    completion time (or +inf when it never finishes).

    Module-level so the sweep engine can address it as the
    ``dummynet-transfer`` task from worker processes.
    """
    sim = Simulator()
    rng = RngStreams(seed=seed).get("dummynet")
    a = Node(sim, "client", "10.0.0.1")
    b = Node(sim, "server", "10.0.0.2")
    pipe = DummyNetPipe(sim, mbps(4), delay_s=ms(1), plr=plr, rng=rng)
    pipe.attach(a.add_interface("e"), b.add_interface("e"))
    a.set_default_route(a.interfaces["e"])
    b.set_default_route(b.interfaces["e"])

    def on_accept(conn):
        conn.on_established = lambda c: (c.send(transfer_bytes), c.close())

    TcpListener(b, 80, on_accept)
    client = TcpConnection.connect(a, Endpoint("10.0.0.2", 80))
    done_probe = {"t": None}

    def on_data(n, p, c=client):
        if client.bytes_delivered >= transfer_bytes and done_probe["t"] is None:
            done_probe["t"] = sim.now

    client.on_data = on_data
    sim.run(until=600.0)
    return done_probe["t"] if done_probe["t"] is not None else float("inf")


def drop_effect_dummynet(
    seed: int = 0, quick: bool = False,
    engine: Optional[SweepEngine] = None,
) -> dict:
    """E9b — §4.3: a 4 Mb/s DummyNet pipe, 2 ms RTT, 5 % drop rate."""
    transfer_bytes = mib(1) if quick else mib(2)
    rates = (0.0, 0.05)
    outcome = _engine(engine).run(
        SweepSpec.from_tasks(
            "drop_effect_dummynet",
            "dummynet-transfer",
            [
                {"seed": seed, "transfer_bytes": transfer_bytes, "plr": plr}
                for plr in rates
            ],
            labels=[{"plr": plr} for plr in rates],
        )
    )
    clean, lossy = outcome.results
    return {
        "experiment": "drop-effect-dummynet",
        "transfer_s_clean": clean,
        "transfer_s_5pct_loss": lossy,
        "slowdown_fraction": lossy / clean - 1.0,
    }


def memory_footprint(
    seed: int = 0, quick: bool = False,
    engine: Optional[SweepEngine] = None,
) -> dict:
    """E10 — §3.2.2: the proxy buffer stays small (≤512 KB claimed)."""
    clients = [ClientSpec("video", video_kbps=512)] * (4 if quick else 8)
    clients += [ClientSpec("web")] * 2
    config = ExperimentConfig(
        clients=clients,
        burst_interval_s=0.5,
        duration_s=_duration(quick),
        seed=seed,
    )
    outcome = _engine(engine).run(
        SweepSpec.experiments("memory_footprint", [config])
    )
    result = outcome.results[0]
    return {
        "experiment": "memory-footprint",
        "peak_buffer_bytes": result.peak_proxy_buffer_bytes,
        "claimed_bound_bytes": 512 * 1024,
        "within_claim": result.peak_proxy_buffer_bytes <= 512 * 1024,
    }


def schedule_reuse(
    seed: int = 0, quick: bool = False,
    engine: Optional[SweepEngine] = None,
) -> list[dict]:
    """E11 — §5 future work: skip the schedule wake when unchanged."""
    n = 4 if quick else 10
    variants = (False, True)
    configs = [
        video_only(
            [56] * n, burst_interval_s=0.1,
            duration_s=_duration(quick), seed=seed,
            reuse_schedules=reuse,
        )
        for reuse in variants
    ]
    labels = [{"reuse": reuse} for reuse in variants]
    outcome = _engine(engine).run(
        SweepSpec.experiments("schedule_reuse", configs, labels)
    )
    return [
        {
            "experiment": "schedule-reuse",
            "reuse_enabled": label["reuse"],
            "avg_saved_pct": result.summary.avg_saved_pct,
            "schedules_sent": result.schedules_sent,
            "schedules_reused": result.schedules_reused,
            "avg_loss_pct": result.summary.avg_loss_pct,
        }
        for label, result in zip(labels, outcome.results)
    ]


def compensator_ablation(
    seed: int = 0, quick: bool = False,
    engine: Optional[SweepEngine] = None,
) -> list[dict]:
    """Ablation — delay-compensation algorithms (§3.3).

    Same workload, four clients, 100 ms interval; only the client-side
    prediction changes:

    * ``adaptive`` — the paper's algorithm plus the min-filter margin;
    * ``fixed-exact`` — absolute proxy timestamps with a perfect clock;
    * ``fixed-skewed`` — absolute timestamps with a 20 ms clock error
      (why unsynchronized clocks force the adaptive design).
    """
    n = 2 if quick else 4
    variants = (
        ("adaptive", "adaptive", 0.0),
        ("fixed-exact", "fixed", 0.0),
        ("fixed-skewed", "fixed", 0.02),
    )
    configs = [
        ExperimentConfig(
            clients=[ClientSpec("video", video_kbps=128)] * n,
            burst_interval_s=0.1,
            duration_s=_duration(quick),
            seed=seed,
            compensator=compensator,
            fixed_clock_offset_error_s=clock_error,
        )
        for _, compensator, clock_error in variants
    ]
    labels = [{"variant": label} for label, _, _ in variants]
    outcome = _engine(engine).run(
        SweepSpec.experiments("compensator_ablation", configs, labels)
    )
    return [
        {
            "experiment": "compensator-ablation",
            "variant": label["variant"],
            "avg_saved_pct": result.summary.avg_saved_pct,
            "avg_loss_pct": result.summary.avg_loss_pct,
            "missed_schedules": sum(
                r.missed_schedules for r in result.reports
            ),
        }
        for label, result in zip(labels, outcome.results)
    ]


def split_connection_ablation(
    seed: int = 0, quick: bool = False,
    engine: Optional[SweepEngine] = None,
) -> list[dict]:
    """Ablation — why the proxy splits connections (§2, §3.2).

    Three ways to move the same FTP download to a scheduled client:

    * ``split``   — the paper's design: double connections, spoofed.
    * ``passthrough`` — one end-to-end connection whose data segments
      are buffered and burst by the proxy: the sender's RTT inflates by
      about half a burst interval, the 64 KB window caps throughput,
      and spurious RTOs pile up. This is the design the paper rejects.
    * ``bridge``  — no proxy involvement, client always awake: the
      baseline transfer time.
    """
    size = mib(1) if quick else mib(2)
    modes = ("split", "passthrough", "bridge")
    configs = [
        ExperimentConfig(
            clients=[ClientSpec("ftp", ftp_bytes=size)],
            burst_interval_s=0.5,
            duration_s=60.0 if quick else 180.0,
            seed=seed,
            tcp_mode=mode,
        )
        for mode in modes
    ]
    labels = [{"mode": mode} for mode in modes]
    outcome = _engine(engine).run(
        SweepSpec.experiments("split_ablation", configs, labels)
    )
    rows = []
    for label, result in zip(labels, outcome.results):
        report = result.reports[0]
        rows.append(
            {
                "experiment": "split-ablation",
                "mode": label["mode"],
                "transfer_time_s": report.extra.get("transfer_time_s"),
                "done": report.extra.get("done"),
                "energy_saved_pct": report.energy_saved_pct,
            }
        )
    return rows
