"""Generate EXPERIMENTS.md from the benchmark results.

``pytest benchmarks/ --benchmark-only`` persists each experiment's rows
under ``benchmarks/results/*.json``; this module renders them next to
the paper's reported values so the comparison document is regenerated,
not hand-maintained. Usable via ``python -m repro report``.

``refresh_results`` re-runs every driver without the benchmark harness
— all of them fan out through one shared
:class:`~repro.sweep.SweepEngine`, so a refresh is parallel and
warm-cache reruns cost nothing (``python -m repro report --refresh``).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Callable, Optional, Union

PathLike = Union[str, pathlib.Path]

#: results-file name -> "module:function" of the driver that produces it.
RESULT_DRIVERS: dict[str, str] = {
    "figure4": "repro.experiments.figures:figure4",
    "figure5": "repro.experiments.figures:figure5",
    "figure6": "repro.experiments.figures:figure6",
    "figure7": "repro.experiments.figures:figure7",
    "pareto": "repro.experiments.figures:pareto",
    "campus": "repro.experiments.figures:campus_grid",
    "tcp_only": "repro.experiments.tables:tcp_only",
    "optimal_comparison": "repro.experiments.tables:optimal_comparison",
    "static_vs_dynamic": "repro.experiments.tables:static_vs_dynamic",
    "drop_effect_netfilter": "repro.experiments.tables:drop_effect_netfilter",
    "drop_effect_dummynet": "repro.experiments.tables:drop_effect_dummynet",
    "memory_footprint": "repro.experiments.tables:memory_footprint",
    "schedule_reuse": "repro.experiments.tables:schedule_reuse",
    "compensator_ablation": "repro.experiments.tables:compensator_ablation",
    "split_ablation": "repro.experiments.tables:split_connection_ablation",
    "psm_baseline": "repro.experiments.baselines:psm_comparison",
}


def refresh_results(
    results_dir: PathLike = "benchmarks/results",
    quick: bool = False,
    seed: int = 1,
    engine: Any = None,
    only: Optional[list[str]] = None,
) -> list[pathlib.Path]:
    """Re-run every driver and persist its rows; returns written paths.

    All drivers share ``engine`` (one is created when None), so a
    refresh inherits its cache and ``--jobs`` fan-out; the engine's
    accumulated reports say how much actually executed.
    """
    import importlib

    from repro.sweep import SweepEngine

    if engine is None:
        engine = SweepEngine()
    results_dir = pathlib.Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    written: list[pathlib.Path] = []
    for name, target in RESULT_DRIVERS.items():
        if only is not None and name not in only:
            continue
        module_name, _, attr = target.partition(":")
        driver: Callable = getattr(importlib.import_module(module_name), attr)
        rows = driver(seed=seed, quick=quick, engine=engine)
        path = results_dir / f"{name}.json"
        path.write_text(json.dumps(rows, indent=2, default=str) + "\n")
        written.append(path)
    return written

#: Paper-reported reference values, quoted from the text and figures.
PAPER_FIGURE4_500MS = {"56K": 77.0, "256K": 66.0, "512K": 53.0}
PAPER_OPTIMAL = {"56K": 90.0, "256K": 83.0, "512K": 77.0}
PAPER_TCP_ONLY = "70-80% (all intervals)"
PAPER_MIXED_RANGE = "just over 50% to just under 90%"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    if isinstance(value, dict):
        return " ".join(f"{k}:{_fmt(v)}" for k, v in value.items())
    if value is None:
        return "-"
    return str(value)


def _table(rows: list[dict], columns: list[str], headers: Optional[list[str]] = None) -> str:
    headers = headers or columns
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "---|" * len(headers))
    for row in rows:
        lines.append(
            "| " + " | ".join(_fmt(row.get(col)) for col in columns) + " |"
        )
    return "\n".join(lines)


def _load(results_dir: pathlib.Path, name: str):
    path = results_dir / f"{name}.json"
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    return [data] if isinstance(data, dict) else data


def generate_report(results_dir: pathlib.Path) -> str:
    """Render the full EXPERIMENTS.md text from saved results."""
    sections: list[str] = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated from `benchmarks/results/*.json` "
        "(run `pytest benchmarks/ --benchmark-only`, then "
        "`python -m repro report`). Absolute numbers are not expected to"
        " match a 2004 hardware testbed; the shapes — who wins, by what"
        " factor, where crossovers fall — are the reproduction target."
        " All runs: 119 s traces, seed 1, WaveLAN power model.",
        "",
    ]

    figure4 = _load(results_dir, "figure4")
    if figure4:
        sections += [
            "## Figure 4 — ten UDP video clients",
            "",
            "Paper (500 ms): 56K saves **77 %**, 256K **66 %**, 512K "
            "**53 %**; mixed patterns ≈ **69 %**; 100 ms is worse than "
            "500 ms everywhere (early-transition penalty); ten 512K "
            "streams exceed the cell and trigger RealServer adaptation.",
            "",
            _table(
                figure4,
                ["interval", "pattern", "avg_saved_pct", "min_saved_pct",
                 "max_saved_pct", "avg_loss_pct", "downshifts"],
            ),
            "",
            "Shape check: savings fall with fidelity at every interval; "
            "500 ms beats 100 ms for every pattern; loss stays near the "
            "paper's <2 % bar; the 512K runs downshift. The variable "
            "policy tracks queue-drain time, so at these loads it sits "
            "at its 100 ms floor — matching the paper's note that its "
            "maximum is only reached when several streams have high "
            "bandwidth.",
            "",
        ]

    tcp_only = _load(results_dir, "tcp_only")
    if tcp_only:
        sections += [
            "## §4.2 TCP-only (no paper graph)",
            "",
            f"Paper (text): {PAPER_TCP_ONLY}.",
            "",
            _table(
                tcp_only,
                ["interval", "avg_saved_pct", "min_saved_pct",
                 "max_saved_pct", "avg_loss_pct", "pages_loaded"],
            ),
            "",
            "The 500 ms row lands inside the paper's band; 100 ms and "
            "variable sit a few points below it because every fresh TCP "
            "connection holds the card awake through its handshake — a "
            "cost that recurs 10× more often per saved sleep at the "
            "short interval.",
            "",
        ]

    figure5 = _load(results_dir, "figure5")
    if figure5:
        sections += [
            "## Figure 5 — seven video + three web clients",
            "",
            f"Paper: savings range {PAPER_MIXED_RANGE}; TCP clients "
            "show lower variance (no adaptation).",
            "",
            _table(
                figure5,
                ["interval", "pattern", "udp_avg_saved_pct",
                 "udp_min_saved_pct", "udp_max_saved_pct",
                 "tcp_avg_saved_pct", "avg_loss_pct"],
            ),
            "",
            "All non-saturated cells fall inside the paper's range. The "
            "(100 ms, 512K/TCP) cell saturates the medium — 7×450 kbps "
            "effective plus web traffic — and the backlogged web clients "
            "stay awake almost continuously; the paper's low end "
            "(~50 %) relied on RealServer adaptation freeing more "
            "bandwidth than our loss-triggered model does there.",
            "",
        ]

    optimal = _load(results_dir, "optimal_comparison")
    if optimal:
        sections += [
            "## §4.3 comparison to the theoretical optimum",
            "",
            "Paper: optimal **90/83/77 %** vs measured **77/66/53 %** "
            "(56K/256K/512K); 'savings within 10-15 % of optimal are "
            "common'.",
            "",
            _table(
                optimal,
                ["stream", "optimal_pct", "measured_pct", "gap_pct",
                 "paper_optimal_pct", "paper_measured_pct"],
            ),
            "",
        ]

    figure6 = _load(results_dir, "figure6")
    if figure6:
        sections += [
            "## Figure 6 — early transition amount",
            "",
            "Paper: total wasted energy is U-shaped in the early amount "
            "with the best value at **6 ms**; missed packets range "
            "1.83 % (0 ms) to 0.97 % (10 ms).",
            "",
            _table(
                figure6,
                ["early_ms", "early_waste_j", "missed_schedule_waste_j",
                 "total_waste_j", "missed_schedules", "missed_pct",
                 "avg_saved_pct"],
            ),
            "",
            "The U-shape reproduces: early-wake waste grows with the "
            "amount while missed-schedule waste collapses. Our AP-delay "
            "calibration is milder than the real testbed's, so the "
            "minimum lands at 2-4 ms instead of 6 ms, and 0 ms costs "
            "2.65 % of packets (paper: 1.83 %).",
            "",
        ]

    static = _load(results_dir, "static_vs_dynamic")
    if static:
        sections += [
            "## §4.3 static vs dynamic schedule (identical streams, 100 ms)",
            "",
            "Paper: 'both average energy usage and variance is lowered "
            "by using a static schedule'.",
            "",
            _table(
                static,
                ["stream", "static_avg_saved_pct", "static_variance",
                 "dynamic_avg_saved_pct", "dynamic_variance"],
            ),
            "",
        ]

    figure7 = _load(results_dir, "figure7")
    if figure7:
        sections += [
            "## Figure 7 — static TCP/UDP slots at 500 ms",
            "",
            "Paper: small TCP slots starve TCP (latency grows toward "
            "seconds), large slots waste energy on every TCP client; "
            "video energy grows with fidelity.",
            "",
            _table(
                figure7,
                ["tcp_weight_pct", "video_energy_used_pct",
                 "tcp_energy_used_pct", "tcp_latency_ms", "tcp_objects"],
            ),
            "",
        ]

    pareto = _load(results_dir, "pareto")
    if pareto:
        sim_rows = [r for r in pareto if r.get("source") == "sim"]
        model_rows = [r for r in pareto if r.get("source") == "model"]
        sections += [
            "## Extension — policy Pareto front (energy × delay)",
            "",
            "Beyond the paper: per-client Gilbert–Elliott channels and a "
            "family of slot-admission policies (DESIGN.md §14). "
            "`dynamic` is the paper's policy (admit every backlogged "
            "client), `channel` defers bad-channel clients a bounded "
            "number of intervals, `joint` additionally lets a deep "
            "backlog override a bad channel. Each policy trades queueing "
            "delay against energy wasted transmitting into fades.",
            "",
        ]
        if sim_rows:
            sections += [
                "Full-testbed runs under the Pareto channel plan "
                "(energy = savings vs naive, delay = byte-weighted mean "
                "time in the proxy queues):",
                "",
                _table(
                    sim_rows,
                    ["policy", "avg_saved_pct", "mean_queue_delay_ms",
                     "avg_loss_pct", "policy_grants", "policy_defers"],
                ),
                "",
            ]
        if model_rows:
            sections += [
                "Discrete (queue, channel) model averaged over random "
                "instances, with the clairvoyant DP optimum as the "
                "lower-bound anchor (`optimal` — no online policy can "
                "beat it; the differential suite under `tests/core/` "
                "asserts exactly that):",
                "",
                _table(
                    model_rows,
                    ["policy", "mean_total_cost", "mean_energy_cost",
                     "mean_delay_slots"],
                ),
                "",
            ]

    campus = _load(results_dir, "campus")
    if campus:
        # Roam rates like 0.02 must not round away to 0.0 in the table.
        campus = [
            dict(row, roam_rate=f"{row['roam_rate']:g}") for row in campus
        ]
        sections += [
            "## Extension — multi-AP campus with roaming clients",
            "",
            "Beyond the paper: N independent cells (each its own medium, "
            "AP, and proxy scheduler shard), clients roaming between "
            "them on a seeded epoch grid, and a handoff coordinator "
            "migrating queue state and schedule membership between "
            "shards (DESIGN.md §15). Energy saved × handoff count over "
            "the cell-count × roam-rate grid:",
            "",
            _table(
                campus,
                ["cells", "roam_rate", "avg_saved_pct", "min_saved_pct",
                 "avg_loss_pct", "handoffs", "handoff_bytes"],
            ),
            "",
            "Sharding alone (roam 0.0) is free — per-cell schedules see "
            "fewer contenders, so savings tick *up* with cell count "
            "while staying loss-free, and a 1-cell campus is "
            "byte-identical to the classic testbed (pinned by the "
            "differential suite under `tests/campus/`). Roaming buys "
            "mobility at a bounded energy cost: each handoff spends a "
            "radio gap plus queue migration, so savings fall and a "
            "high roam rate leaks some loss, but the transfer policy "
            "keeps the backlog (handoff_bytes) instead of dropping it.",
            "",
        ]

    netfilter = _load(results_dir, "drop_effect_netfilter")
    dummynet = _load(results_dir, "drop_effect_dummynet")
    if netfilter or dummynet:
        sections += [
            "## §4.3 packet-drop validation",
            "",
            "Paper: really dropping packets while the card sleeps "
            "(Netfilter) lengthened transfers by **no more than ~10 %**; "
            "a DummyNet pipe at 4 Mb/s / 2 ms RTT / 5 % loss behaved "
            "similarly.",
            "",
        ]
        if netfilter:
            sections += [
                _table(
                    netfilter,
                    ["setup", "transfer_s_drops_enforced",
                     "transfer_s_receive_anyway", "slowdown_fraction"],
                ),
                "",
            ]
        if dummynet:
            sections += [
                _table(
                    dummynet,
                    ["transfer_s_clean", "transfer_s_5pct_loss",
                     "slowdown_fraction"],
                ),
                "",
                "**Known gap:** our TCP implements NewReno + SACK with "
                "delayed ACKs, but no tail-loss probes: at a 5 % random "
                "drop rate the losses that land on the last packet in "
                "flight (or on a retransmission) still cost a ≥200 ms "
                "RTO each, so the slowdown exceeds the paper's ~10 %. "
                "The Netfilter single-client row — the paper's actual "
                "configuration — reproduces the ≤10 % claim.",
                "",
            ]

    memory = _load(results_dir, "memory_footprint")
    if memory:
        sections += [
            "## §3.2.2 proxy memory",
            "",
            "Paper: 'even if one second of data (to all clients) had to "
            "be buffered, 512 KB would be sufficient'.",
            "",
            _table(
                memory,
                ["peak_buffer_bytes", "claimed_bound_bytes", "within_claim"],
            ),
            "",
            "Under the saturating 8×512K+web load our peak exceeds the "
            "paper's envelope because TCP backlog (bounded by 64 KiB of "
            "window per connection) rides in the queues alongside the "
            "one-interval UDP buffering; it stays within 2× of the "
            "claim and far below any practical constraint.",
            "",
        ]

    reuse = _load(results_dir, "schedule_reuse")
    if reuse:
        sections += [
            "## §5 future work — schedule reuse",
            "",
            "Paper (proposal only): if the schedule repeats, clients "
            "can skip the schedule wake-up.",
            "",
            _table(
                reuse,
                ["reuse_enabled", "avg_saved_pct", "schedules_sent",
                 "schedules_reused", "avg_loss_pct"],
            ),
            "",
            "Implemented and safe (no loss penalty). Under VBR video the "
            "layout rarely repeats exactly, so reuse fires sparsely; CBR "
            "workloads reuse far more often (see the unit tests).",
            "",
        ]

    ablation = _load(results_dir, "split_ablation")
    if ablation:
        sections += [
            "## Ablation — why connections are split (§2, §3.2)",
            "",
            "The same FTP download via the paper's split design, via a "
            "buffering non-split proxy (the rejected design: buffering "
            "inflates RTT, the end-to-end window throttles), and direct.",
            "",
            _table(
                ablation,
                ["mode", "transfer_time_s", "done", "energy_saved_pct"],
            ),
            "",
        ]

    compensators = _load(results_dir, "compensator_ablation")
    if compensators:
        sections += [
            "## Ablation — delay compensation (§3.3)",
            "",
            _table(
                compensators,
                ["variant", "avg_saved_pct", "avg_loss_pct",
                 "missed_schedules"],
            ),
            "",
            "The adaptive algorithm needs no clock synchronization yet "
            "matches the perfectly-synchronized strawman; a 20 ms clock "
            "error destroys the absolute-timestamp variant.",
            "",
        ]

    replay = _load(results_dir, "replay_sweep")
    if replay:
        sections += [
            "## §4.1 methodology — postmortem policy replay",
            "",
            "One live capture, replayed offline against different early "
            "amounts (how the paper's simulator produced Figure 6).",
            "",
            _table(
                replay,
                ["early_ms", "replay_saved_pct",
                 "replay_missed_schedules", "replay_frames_missed",
                 "replay_early_wait_s"],
            ),
            "",
        ]

    psm = _load(results_dir, "psm_baseline")
    if psm:
        sections += [
            "## Extension — 802.11b PSM baseline (§2)",
            "",
            "Paper (citing prior work): PSM 'is not a good match' for "
            "streaming. Same 225 kbps stream under three policies:",
            "",
            _table(
                psm,
                ["policy", "energy_saved_pct", "mean_latency_ms",
                 "p95_latency_ms", "packets_delivered", "packets_missed"],
            ),
            "",
            "PSM saves comparable energy but loses packets racing its "
            "beacon-buffer machinery against the stream; the proxy's "
            "explicit schedule delivers everything.",
            "",
        ]

    sweep = _load(results_dir, "sweep")
    if sweep:
        sweep = [
            {
                **row,
                "wall_s": (
                    f"{row['wall_s']:.2f}"
                    if isinstance(row.get("wall_s"), float)
                    and row["wall_s"] < 0.1
                    else row.get("wall_s")
                ),
            }
            for row in sweep
        ]
        sections += [
            "## Reproduction cost — cold vs warm cache",
            "",
            "The sweep engine (DESIGN.md §10) content-addresses every "
            "run by (task, canonical config JSON, code fingerprint): a "
            "cold invocation simulates and populates the cache, a warm "
            "rerun of the same artifact replays results from disk "
            "without a single simulation. Figure-4 grid, quick sizing, "
            "latest `BENCH_sweep.json` entry:",
            "",
            _table(
                sweep,
                ["mode", "jobs", "wall_s", "executed", "cache_hits",
                 "speedup_vs_cold"],
            ),
            "",
            "The cold serial sweep's measured steps, from the "
            "`BENCH_sweep.json` trajectory: on a single-CPU host the "
            "kernel rewrite (DESIGN.md §11) cut it from 10.8 s to 5.9 s "
            "(~1.8×), and the warm worker pool (persistent preloaded "
            "workers, chunked dispatch) lifted `--jobs 2` from 0.86× of "
            "serial — parallel fan-out used to *lose* to process "
            "spawn/import cost — to break-even, where one CPU makes a "
            "genuine speedup impossible. On a shared 2-CPU host the "
            "sweep took 8.2 s cold-serial (4.8 s at `--jobs 2`) just "
            "before links, AP forwarding and the medium went to one heap "
            "push per packet per hop (DESIGN.md §11); the table above is "
            "that host after the change. A single wall-clock run there "
            "varies by more than the change's gain (7.3-9.4 s for one "
            "code version), so the gain was measured with the paired, "
            "kernel-normalised benchmark in `perfbench/`: `fig4_grid` "
            "`run_s` (CPU seconds per pass, scaled by a reference "
            "kernel) fell from 6.37 s to 5.70 s (-10.6%, median of 10 "
            "alternating pairs, the change faster in all 10), and the "
            "events per pass from 964,732 to 534,241. The CI "
            "perf-smoke job requires an outright `--jobs 2` win on ≥2 "
            "CPUs. Trajectory rows carry the code fingerprint and host "
            "CPU count, so entries recorded on different machines or "
            "against different code compare honestly.",
            "",
            "Any source change under `src/repro/` rotates the code "
            "fingerprint and cold-starts every key, so a warm cache can "
            "never serve stale physics.",
            "",
        ]

    overhead = _load(results_dir, "obs_overhead")
    if overhead:
        sections += [
            "## Observability overhead",
            "",
            "Wall-clock cost of the instrumentation facade on the "
            "schedule-reuse workload (min of 3 runs per mode; `null` = "
            "NullRecorder hooks, `trace` = pre-obs baseline, `full` = "
            "trace + metrics + spans). The NullRecorder budget is 5%.",
            "",
            _table(
                overhead,
                ["t_null_s", "t_trace_s", "t_full_s",
                 "null_overhead_pct", "full_overhead_pct"],
            ),
            "",
        ]

    sections += [
        "## Live-runtime load test (`repro loadtest`)",
        "",
        "The asyncio runtime (DESIGN.md §12) runs the same proxy design "
        "on real loopback sockets, production-hardened: watermark "
        "backpressure, admission control, heartbeat liveness with slot "
        "reclaim/eviction, and a supervised scheduler. The load-test "
        "harness drives N concurrent clients through it and reports "
        "req/s, p50/p99 request latency, schedule-broadcast jitter, and "
        "peak per-client queue depth against the backpressure watermark "
        "(the command exits non-zero if any queue ever overshot the "
        "high watermark by more than one 64 KiB read chunk).",
        "",
        "```bash",
        "python -m repro loadtest --clients 50 --requests 2 "
        "--bytes 64000",
        "",
        "# under chaos: ChaosShim reinterprets the FaultPlan vocabulary",
        "# on the wall clock (iid control-datagram loss, schedule-only",
        "# blackouts, origin kill windows, client vanish/rejoin)",
        "python -m repro loadtest --clients 8 --fault-loss 0.2 \\",
        "    --fault-blackout 0.3:0.6 --fault-churn 0:0.4 \\",
        "    --silence-timeout 0.3 --evict-timeout 0.8 --json",
        "```",
        "",
        "Wall-clock numbers vary by machine, so no measured table is "
        "pinned here; the invariants are asserted by "
        "`tests/runtime/` instead (50 concurrent clients within the "
        "watermark, survivors unaffected by a vanished client, dead "
        "clients evicted within the liveness window, zero leaked "
        "tasks/sockets after teardown). The runtime records through "
        "`repro.obs` under the simulator's instrument names "
        "(`scheduler.queue_bytes`, `proxy.bursts`, `drops`, ...), so a "
        "live metrics snapshot diffs name-for-name against a simulated "
        "one; live-only instruments are namespaced `runtime.*`.",
        "",
        "## Inspecting a run's timeline (Perfetto)",
        "",
        "Every run can export its observability stream; the exports are "
        "deterministic (same `(plan, seed)` → byte-identical files — "
        "pinned by the golden suite under `tests/obs/goldens/`).",
        "",
        "```bash",
        "# a Figure-4-style run: 10 video clients, 500 ms bursts",
        "python -m repro trace \\",
        "    --clients video:56,video:56,video:56,video:56,video:56,"
        "video:56,video:56,video:56,video:56,video:56 \\",
        "    --interval 500ms --duration 30 --seed 1 "
        "--trace-out figure4.trace.json",
        "",
        "# or alongside a normal run",
        "python -m repro run --clients video:56,web --interval 100ms \\",
        "    --duration 10 --metrics-out metrics.json "
        "--events-out events.jsonl --trace-out timeline.json",
        "```",
        "",
        "Open the trace file at <https://ui.perfetto.dev> (or "
        "`chrome://tracing`): one track per client plus `proxy` and "
        "`medium` rows. Schedule intervals and per-client burst slots "
        "render as slices on the proxy/client tracks, client burst "
        "phases and WNIC awake stretches show when each card was "
        "actually up, and medium frames appear as transmission slices — "
        "so an under-filled burst or a late wake-up is visible at a "
        "glance. The metrics snapshot (`--metrics-out`) carries the "
        "aggregate view: queue depths, burst fill ratios, slot "
        "utilization, schedule lateness, WNIC residency and fault-drop "
        "counters.",
        "",
    ]

    return "\n".join(sections)


def write_report(
    results_dir: PathLike = "benchmarks/results",
    output: PathLike = "EXPERIMENTS.md",
) -> pathlib.Path:
    """Render and write EXPERIMENTS.md; returns the output path."""
    output = pathlib.Path(output)
    output.write_text(generate_report(pathlib.Path(results_dir)) + "\n")
    return output
