"""Command-line interface.

Examples::

    python -m repro run --clients video:56,video:56,web --interval 500ms
    python -m repro figure 4 --quick
    python -m repro table optimal
    python -m repro sweep --intervals 100ms,500ms --seeds 0:3 --jobs 2
    python -m repro demo

Every command accepts ``--json`` to emit machine-readable rows instead
of the formatted table. The multi-run commands (``figure``, ``table``,
``sweep``, ``report --refresh``) share the sweep engine's executor
options: ``--jobs`` fans runs out over worker processes and
``--cache-dir``/``--no-cache`` control the content-addressed result
cache (warm reruns skip simulation entirely).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any

from repro._version import __version__
from repro.errors import ConfigurationError


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def print_rows(rows: list[dict], as_json: bool) -> None:
    """Print result rows as a table or JSON."""
    from repro.experiments.report_gen import format_cell

    if as_json:
        json.dump(rows, sys.stdout, indent=2, default=str)
        print()
        return
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0].keys())
    widths = {
        col: max(len(col), *(len(format_cell(r.get(col))) for r in rows))
        for col in columns
    }
    print("  ".join(col.ljust(widths[col]) for col in columns))
    for row in rows:
        print(
            "  ".join(
                format_cell(row.get(col)).ljust(widths[col]) for col in columns
            )
        )


# ---------------------------------------------------------------------------
# Argument parsing helpers
# ---------------------------------------------------------------------------


def parse_interval(text: str):
    """'100ms' / '0.5' / '500ms' / 'variable' -> seconds or None."""
    text = text.strip().lower()
    if text in ("variable", "var", "auto"):
        return None
    try:
        if text.endswith("ms"):
            return float(text[:-2]) / 1000.0
        if text.endswith("s"):
            return float(text[:-1])
        return float(text)
    except ValueError as exc:
        raise ConfigurationError(
            f"bad interval {text!r}: use seconds, '<n>ms', or 'variable'"
        ) from exc


def parse_window(text: str):
    """'3.0:4.5' -> Window(3.0, 4.5)."""
    from repro.faults import Window

    try:
        start, _, end = text.partition(":")
        return Window(float(start), float(end))
    except ValueError as exc:
        raise ConfigurationError(f"bad window {text!r}: {exc}") from exc


def parse_churn(text: str):
    """'2:10' or '2:10:25' -> ChurnEvent(index, leave_at[, rejoin_at])."""
    from repro.faults import ChurnEvent

    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigurationError(
            f"bad churn spec {text!r}: expected index:leave[:rejoin]"
        )
    try:
        index, leave = int(parts[0]), float(parts[1])
        rejoin = float(parts[2]) if len(parts) == 3 else None
        return ChurnEvent(index, leave, rejoin)
    except ValueError as exc:
        raise ConfigurationError(f"bad churn spec {text!r}: {exc}") from exc


def parse_gilbert_elliott(text: str, what: str, loss_bad: float = 1.0):
    """'p_gb:p_bg[:loss_bad[:loss_good]]' -> GilbertElliottSpec.

    ``what`` names the spec in errors; ``loss_bad`` is the bad-state loss
    when the text omits it.
    """
    from repro.faults import GilbertElliottSpec

    try:
        parts = [float(p) for p in text.split(":")]
    except ValueError as exc:
        raise ConfigurationError(f"bad {what} spec {text!r}: {exc}") from exc
    if len(parts) not in (2, 3, 4):
        raise ConfigurationError(
            f"bad {what} spec {text!r}: expected "
            "p_gb:p_bg[:loss_bad[:loss_good]]"
        )
    fields = ("p_good_bad", "p_bad_good", "loss_bad", "loss_good")
    return GilbertElliottSpec(**{"loss_bad": loss_bad, **dict(zip(fields, parts))})


def build_channel(args):
    """The ``--channel`` plan, or None; an omitted loss_bad takes
    :class:`~repro.net.channel.ChannelPlan`'s default."""
    from repro.net.channel import ChannelPlan

    if not args.channel:
        return None
    spec = parse_gilbert_elliott(args.channel, "channel", ChannelPlan.loss_bad)
    return ChannelPlan(epoch_s=args.channel_epoch_s, **dataclasses.asdict(spec))


def build_fault_plan(args):
    """Assemble a FaultPlan from the ``--fault-*`` options (or None)."""
    from repro.faults import ClockFaultSpec, FaultPlan

    clock = None
    if args.fault_clock_skew_ppm or args.fault_clock_jitter_ms:
        clock = ClockFaultSpec(
            skew_ppm=args.fault_clock_skew_ppm,
            jitter_s=args.fault_clock_jitter_ms / 1000.0,
        )
    plan = FaultPlan(
        loss_rate=args.fault_loss,
        burst_loss=(
            parse_gilbert_elliott(args.fault_burst_loss, "burst-loss")
            if args.fault_burst_loss
            else None
        ),
        duplicate_rate=args.fault_dup,
        reorder_rate=args.fault_reorder,
        corrupt_rate=args.fault_corrupt,
        outages=tuple(parse_window(w) for w in args.fault_outage),
        schedule_blackouts=tuple(
            parse_window(w) for w in args.fault_blackout
        ),
        clock=clock,
        churn=tuple(parse_churn(c) for c in args.fault_churn),
        fallback_after_misses=args.fault_fallback_misses,
        silence_timeout_s=args.fault_silence_timeout,
    )
    return None if plan == FaultPlan() else plan


def parse_seeds(text: str) -> list[int]:
    """'0,1,2' or '0:3' (half-open range) -> [0, 1, 2]."""
    seeds: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            if ":" in chunk:
                start, _, stop = chunk.partition(":")
                seeds.extend(range(int(start), int(stop)))
            else:
                seeds.append(int(chunk))
        except ValueError as exc:
            raise ConfigurationError(
                f"bad seed spec {chunk!r}: use '<n>' or '<start>:<stop>'"
            ) from exc
    if not seeds:
        raise ConfigurationError(f"no seeds in {text!r}")
    return seeds


def parse_clients(text: str):
    """'video:56,video:512,web,ftp:2097152' -> list of ClientSpec.

    A bare integer chunk is shorthand for that many 56 kbps video
    clients ('1000' == 'video:56' a thousand times) — the campus-scale
    smoke runs need populations, not rosters.
    """
    from repro.experiments.runner import ClientSpec

    specs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, _, arg = chunk.partition(":")
        if kind.isdigit() and not arg:
            specs.extend([ClientSpec("video", video_kbps=56)] * int(kind))
        elif kind == "video":
            specs.append(ClientSpec("video", video_kbps=int(arg or 56)))
        elif kind == "web":
            specs.append(ClientSpec("web", web_pages=int(arg or 40)))
        elif kind == "ftp":
            specs.append(ClientSpec("ftp", ftp_bytes=int(arg or 2 * 1024**2)))
        else:
            raise ConfigurationError(f"unknown client spec: {chunk!r}")
    if not specs:
        raise ConfigurationError("no clients given")
    return specs


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def build_engine(args):
    """A SweepEngine from the shared ``--jobs/--cache-dir/...`` options."""
    from repro.sweep import ResultCache, SweepEngine

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return SweepEngine(jobs=args.jobs, cache=cache)


def _print_engine_summary(engine, as_json: bool) -> None:
    """One accounting line per sweep the command ran (table mode only)."""
    if not as_json:
        for report in engine.reports:
            print(report.summary(), file=sys.stderr)


def build_campus(args):
    """Assemble a CampusTopology from the ``--cells/--roam-*`` options
    (or None for the classic single-cell testbed)."""
    from repro.campus import CampusTopology, HandoffSpec, MobilityPlan

    if args.cells < 1:
        raise ConfigurationError(f"need at least one cell, got {args.cells}")
    if args.roam_rate < 0:
        raise ConfigurationError(f"negative roam rate: {args.roam_rate}")
    if args.cells == 1 and args.roam_rate == 0:
        return None
    return CampusTopology(
        n_cells=args.cells,
        mobility=(
            MobilityPlan(roam_rate=args.roam_rate, epoch_s=args.roam_epoch_s)
            if args.roam_rate > 0
            else None
        ),
        handoff=HandoffSpec(
            policy=args.handoff_policy,
            latency_s=args.handoff_latency_ms / 1000.0,
        ),
    )


def build_experiment_config(args):
    """Assemble an ExperimentConfig from the shared run/trace options."""
    from repro.experiments.runner import ExperimentConfig

    _refuse_unrecorded_exports(args)
    quick = getattr(args, "quick", False)
    return ExperimentConfig(
        clients=parse_clients(args.clients),
        burst_interval_s=parse_interval(args.interval),
        scheduler=args.scheduler,
        static_tcp_weight=args.tcp_weight,
        duration_s=min(args.duration, 6.0) if quick else args.duration,
        start_stagger_s=0.003 if quick else 1.0,
        seed=args.seed,
        early_s=args.early_ms / 1000.0,
        reuse_schedules=args.reuse,
        faults=build_fault_plan(args),
        policy=args.policy,
        policy_threshold_bytes=args.policy_threshold,
        policy_max_defer=args.policy_max_defer,
        channel=build_channel(args),
        campus=build_campus(args),
        obs_mode=args.obs,
    )


def _refuse_unrecorded_exports(args) -> None:
    """Refuse, before anything runs, an export the ``--obs`` mode does
    not record."""
    from repro.obs import OBS_MODES

    keeps = OBS_MODES[args.obs]
    if args.metrics_out and not keeps.metrics:
        raise ConfigurationError(
            f"--metrics-out needs an obs mode that keeps metrics, "
            f"not {args.obs!r}"
        )
    for flag, path in (
        ("--events-out", args.events_out), ("--trace-out", args.trace_out),
    ):
        if path and not keeps.events:
            raise ConfigurationError(
                f"{flag} needs an obs mode that keeps events, "
                f"not {args.obs!r}"
            )


def _export_observability(result, args) -> None:
    """Write whichever observability artifacts were requested."""
    from pathlib import Path

    from repro.obs import chrome_trace_json, events_jsonl, metrics_json

    if args.metrics_out:
        Path(args.metrics_out).write_text(metrics_json(result.obs))
        print(f"wrote {args.metrics_out}")
    if args.events_out:
        Path(args.events_out).write_text(events_jsonl(result.obs))
        print(f"wrote {args.events_out}")
    if args.trace_out:
        Path(args.trace_out).write_text(chrome_trace_json(result.obs))
        print(f"wrote {args.trace_out}")


def cmd_run(args) -> int:
    from repro.experiments.runner import run_experiment

    result = run_experiment(build_experiment_config(args))
    _export_observability(result, args)
    rows = [
        {
            "client": report.name,
            "kind": report.kind,
            "saved_pct": report.energy_saved_pct,
            "optimal_pct": report.optimal_saved_pct,
            "loss_pct": report.loss_pct,
            "energy_j": report.energy_j,
            "missed_schedules": report.missed_schedules,
        }
        for report in result.reports
    ]
    print_rows(rows, args.json)
    if not args.json:
        summary = result.summary
        print(
            f"\navg saved {summary.avg_saved_pct:.1f}% "
            f"[{summary.min_saved_pct:.1f}, {summary.max_saved_pct:.1f}]  "
            f"loss {summary.avg_loss_pct:.2f}%  "
            f"peak proxy buffer {result.peak_proxy_buffer_bytes/1024:.0f} KiB"
        )
        if result.fault_counters:
            drops = "  ".join(
                f"{key}:{count}"
                for key, count in result.fault_counters.items()
            )
            print(f"drops {drops}")
        if result.slots_reclaimed or result.slots_restored:
            print(
                f"slots reclaimed {result.slots_reclaimed} "
                f"restored {result.slots_restored}"
            )
        if result.cells > 1:
            print(
                f"cells {result.cells}  handoffs {result.handoffs}  "
                f"handoff bytes moved {result.handoff_bytes_transferred} "
                f"dropped {result.handoff_bytes_dropped}"
            )
    return 0


def cmd_trace(args) -> int:
    """Run one experiment purely to export its timeline artifacts."""
    from repro.experiments.runner import run_experiment

    if not args.trace_out:
        args.trace_out = "trace.json"
    result = run_experiment(build_experiment_config(args))
    _export_observability(result, args)
    print(
        f"simulated {result.duration_s:.1f}s: {len(result.obs.trace)} events, "
        f"{len(result.obs.spans)} spans "
        f"(open the trace file in chrome://tracing or ui.perfetto.dev)"
    )
    return 0


def cmd_figure(args) -> int:
    from repro.experiments.claims import commands

    engine = build_engine(args)
    kwargs: dict[str, Any] = {}
    if args.number == "pareto":
        from repro.core.policy import POLICY_NAMES

        kwargs["policies"] = (
            POLICY_NAMES if args.policy == "all" else (args.policy,)
        )
    driver = commands("figure")[args.number].load_driver()
    rows = driver(seed=args.seed, quick=args.quick, engine=engine, **kwargs)
    print_rows(rows, args.json)
    _print_engine_summary(engine, args.json)
    return 0


def cmd_table(args) -> int:
    from repro.experiments.claims import commands

    driver = commands("table")[args.name].load_driver()
    engine = build_engine(args)
    rows = driver(seed=args.seed, quick=args.quick, engine=engine)
    if isinstance(rows, dict):
        rows = [rows]
    print_rows(rows, args.json)
    _print_engine_summary(engine, args.json)
    return 0


def cmd_sweep(args) -> int:
    """Expand a grid of intervals × seeds and run it through the engine."""
    from repro.experiments.runner import ExperimentConfig
    from repro.sweep import SweepSpec

    base = ExperimentConfig(
        clients=parse_clients(args.clients),
        burst_interval_s=0.5,
        scheduler=args.scheduler,
        static_tcp_weight=args.tcp_weight,
        duration_s=args.duration,
        early_s=args.early_ms / 1000.0,
        reuse_schedules=args.reuse,
    )
    intervals = [parse_interval(text) for text in args.intervals.split(",")]
    seeds = parse_seeds(args.seeds)
    cells = [(interval, seed) for interval in intervals for seed in seeds]
    engine = build_engine(args)
    outcome = engine.run(
        SweepSpec.experiments(
            args.name,
            [
                dataclasses.replace(base, burst_interval_s=interval, seed=seed)
                for interval, seed in cells
            ],
        )
    )
    rows = []
    for (interval, seed), result in zip(cells, outcome.results):
        rows.append(
            {
                "interval": "variable" if interval is None else interval,
                "seed": seed,
                "avg_saved_pct": result.summary.avg_saved_pct,
                "min_saved_pct": result.summary.min_saved_pct,
                "max_saved_pct": result.summary.max_saved_pct,
                "avg_loss_pct": result.summary.avg_loss_pct,
            }
        )
    if args.json:
        json.dump(
            {"rows": rows, "report": outcome.report.as_dict()},
            sys.stdout, indent=2, default=str,
        )
        print()
    else:
        print_rows(rows, False)
        print(outcome.report.summary(), file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    from repro.experiments.report_gen import write_report

    if args.refresh:
        from repro.experiments.report_gen import refresh_results

        engine = build_engine(args)
        written = refresh_results(
            results_dir=args.results, quick=args.quick, engine=engine,
        )
        _print_engine_summary(engine, as_json=False)
        print(f"refreshed {len(written)} result file(s) in {args.results}")
    path = write_report(results_dir=args.results, output=args.output)
    print(f"wrote {path}")
    return 0


def cmd_analyze(args) -> int:
    from repro.analysis import RENDERERS, analyze_paths, render_statistics

    findings = analyze_paths(args.paths)
    rendered = RENDERERS[args.format](findings)
    if rendered:
        print(rendered)
    if args.statistics:
        print(render_statistics(findings))
    elif not findings and args.format == "text":
        print("no findings")
    return 1 if findings else 0


def cmd_demo(args) -> int:
    import asyncio

    from repro.runtime.demo import run_demo

    results = asyncio.run(
        run_demo(
            n_clients=args.clients,
            file_size=args.bytes,
            burst_interval_s=parse_interval(args.interval),
        )
    )
    rows = [
        {
            "client": r.client_id,
            "bytes": r.bytes_received,
            "schedules": r.schedules_heard,
            "marks": r.marks_heard,
            "awake_pct": r.awake_fraction * 100.0,
            "est_saved_pct": r.estimated_savings_pct,
        }
        for r in results
    ]
    print_rows(rows, args.json)
    return 0


def cmd_loadtest(args) -> int:
    import asyncio

    from repro.faults import FaultPlan
    from repro.runtime import LoadTestConfig, run_loadtest
    from repro.runtime.proxy import AsyncProxyConfig

    plan = None
    if (
        args.fault_loss
        or args.fault_outage
        or args.fault_blackout
        or args.fault_churn
    ):
        plan = FaultPlan(
            loss_rate=args.fault_loss,
            outages=tuple(parse_window(w) for w in args.fault_outage),
            schedule_blackouts=tuple(
                parse_window(w) for w in args.fault_blackout
            ),
            churn=tuple(parse_churn(c) for c in args.fault_churn),
        )
    config = LoadTestConfig(
        clients=args.clients,
        requests_per_client=args.requests,
        bytes_per_request=args.bytes,
        origin_pace_s=args.pace_ms / 1000.0,
        timeout_s=args.timeout,
        plan=plan,
        seed=args.seed,
        proxy=AsyncProxyConfig(
            burst_interval_s=parse_interval(args.interval),
            queue_high_bytes=args.queue_high,
            queue_low_bytes=min(args.queue_high, args.queue_low),
            silence_timeout_s=args.silence_timeout,
            evict_timeout_s=max(args.evict_timeout, args.silence_timeout),
        ),
    )
    report = asyncio.run(run_loadtest(config))
    print_rows(report.summary_rows(), args.json)
    if not args.json:
        print(
            f"\n{report.bytes_received / 1024:.0f} KiB in "
            f"{report.duration_s:.2f}s  "
            f"peak buffer {report.peak_buffered_bytes / 1024:.0f} KiB  "
            f"schedules {report.schedules_sent}  "
            f"slots reclaimed {report.slots_reclaimed}  "
            f"chaos dropped {report.chaos_dropped}"
        )
        if report.watermark_exceeded:
            print(
                "WATERMARK EXCEEDED: peak per-client queue "
                f"{report.peak_queue_bytes} B > high watermark "
                f"{report.queue_high_bytes} B + one chunk"
            )
    return 1 if report.watermark_exceeded else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.claims import commands
    from repro.obs import OBS_MODES

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Dynamic, Power-Aware Scheduling for Mobile "
            "Clients Using a Transparent Proxy' (ICPP 2004)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_options(command) -> None:
        """Experiment options shared by ``run`` and ``trace``."""
        command.add_argument(
            "--clients", default="video:56," * 9 + "video:56",
            help="comma list: video:<kbps> | web[:pages] | ftp[:bytes]",
        )
        command.add_argument("--interval", default="500ms",
                             help="burst interval (e.g. 100ms, 0.5, variable)")
        command.add_argument("--scheduler", choices=("dynamic", "static"),
                             default="dynamic")
        command.add_argument("--tcp-weight", type=float, default=0.0,
                             help="static TCP slot fraction (Figure 7)")
        command.add_argument("--duration", type=float, default=119.0)
        command.add_argument("--seed", type=int, default=0)
        command.add_argument("--early-ms", type=float, default=6.0)
        command.add_argument("--reuse", action="store_true",
                             help="enable §5 schedule reuse")
        command.add_argument("--quick", action="store_true",
                             help="smoke sizing: cap duration at 6s and "
                                  "collapse the start stagger")
        command.add_argument(
            "--obs", choices=tuple(OBS_MODES),
            default="full",
            help="observability mode ('metrics' keeps counters but no "
                 "per-event rows — the 1k-client smoke mode)",
        )
        campus = command.add_argument_group(
            "campus topology (multi-cell roaming; see repro.campus and "
            "DESIGN.md §15)"
        )
        campus.add_argument("--cells", type=int, default=1,
                            help="number of campus cells (1 = classic "
                                 "single-cell testbed)")
        campus.add_argument("--roam-rate", type=float, default=0.0,
                            metavar="P",
                            help="per-client per-epoch roam probability")
        campus.add_argument("--roam-epoch-s", type=float, default=1.0,
                            metavar="SECONDS",
                            help="mobility decision grid (default 1.0)")
        campus.add_argument("--handoff-policy",
                            choices=("transfer", "drain"),
                            default="transfer",
                            help="migrate the backlog or start clean")
        campus.add_argument("--handoff-latency-ms", type=float, default=20.0,
                            help="radio re-association gap (default 20ms)")
        policy = command.add_argument_group(
            "slot-admission policy (see repro.core.policy; 'dynamic' "
            "reproduces the paper byte-for-byte)"
        )
        policy.add_argument("--policy",
                            choices=("dynamic", "channel", "joint"),
                            default="dynamic")
        policy.add_argument("--policy-threshold", type=int, default=1,
                            metavar="BYTES",
                            help="joint policy: backlog that overrides a "
                                 "bad channel")
        policy.add_argument("--policy-max-defer", type=int, default=2,
                            metavar="N",
                            help="channel policy: max consecutive deferrals")
        policy.add_argument("--channel", default="",
                            metavar="PGB:PBG[:LBAD[:LGOOD]]",
                            help="per-client Gilbert-Elliott channel model "
                                 "(exclusive RNG streams; never perturbs "
                                 "fault replays)")
        policy.add_argument("--channel-epoch-s", type=float, default=0.1,
                            metavar="SECONDS",
                            help="channel transition grid (default 0.1)")
        faults = command.add_argument_group(
            "fault injection (deterministic under --seed; see repro.faults)"
        )
        faults.add_argument("--fault-loss", type=float, default=0.0,
                            metavar="RATE", help="iid wireless frame loss rate")
        faults.add_argument("--fault-burst-loss", default="",
                            metavar="PGB:PBG[:LBAD[:LGOOD]]",
                            help="Gilbert-Elliott bursty loss parameters")
        faults.add_argument("--fault-dup", type=float, default=0.0,
                            metavar="RATE", help="frame duplication rate")
        faults.add_argument("--fault-reorder", type=float, default=0.0,
                            metavar="RATE", help="frame reordering rate")
        faults.add_argument("--fault-corrupt", type=float, default=0.0,
                            metavar="RATE",
                            help="frame corruption (CRC-fail) rate")
        faults.add_argument("--fault-outage", action="append", default=[],
                            metavar="START:END",
                            help="AP outage window (repeatable)")
        faults.add_argument("--fault-blackout", action="append", default=[],
                            metavar="START:END",
                            help="schedule-broadcast blackout window "
                                 "(repeatable)")
        faults.add_argument("--fault-churn", action="append", default=[],
                            metavar="CLIENT:LEAVE[:REJOIN]",
                            help="client churn event (repeatable)")
        faults.add_argument("--fault-clock-skew-ppm", type=float, default=0.0,
                            help="client clock rate error in ppm")
        faults.add_argument("--fault-clock-jitter-ms", type=float, default=0.0,
                            help="client wake-up timer jitter stddev (ms)")
        faults.add_argument("--fault-fallback-misses", type=int, default=3,
                            metavar="N",
                            help="missed broadcasts before always-listen "
                                 "fallback")
        faults.add_argument("--fault-silence-timeout", type=float,
                            default=None, metavar="SECONDS",
                            help="reclaim slots of clients silent this long")
        obs = command.add_argument_group(
            "observability export (deterministic: same seed, same bytes)"
        )
        obs.add_argument("--metrics-out", default=None, metavar="FILE",
                         help="write the canonical metrics JSON snapshot")
        obs.add_argument("--events-out", default=None, metavar="FILE",
                         help="write the event-stream JSONL")
        obs.add_argument("--trace-out", default=None, metavar="FILE",
                         help="write a chrome://tracing / Perfetto timeline")

    def add_executor_options(command) -> None:
        """Sweep-engine options shared by every multi-run command."""
        executor = command.add_argument_group(
            "sweep execution (cache + parallel fan-out; see DESIGN.md §10)"
        )
        executor.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes (1 = serial; results are identical)",
        )
        executor.add_argument(
            "--cache-dir", default=".sweep-cache", metavar="DIR",
            help="content-addressed result cache (default: .sweep-cache)",
        )
        executor.add_argument(
            "--no-cache", action="store_true",
            help="always re-run; neither read nor write the cache",
        )

    run = sub.add_parser("run", help="run one experiment")
    add_run_options(run)
    run.add_argument("--json", action="store_true")
    run.set_defaults(func=cmd_run)

    trace = sub.add_parser(
        "trace",
        help="run one experiment and export its observability timeline",
    )
    add_run_options(trace)
    trace.set_defaults(func=cmd_trace)

    figure = sub.add_parser(
        "figure",
        help="regenerate a paper figure (or the policy 'pareto' extension)",
    )
    figure.add_argument("number", choices=tuple(commands("figure")))
    figure.add_argument("--quick", action="store_true")
    figure.add_argument("--seed", type=int, default=1)
    figure.add_argument(
        "--policy", choices=("dynamic", "channel", "joint", "all"),
        default="all",
        help="pareto only: which policies to sweep (default: all)",
    )
    figure.add_argument("--json", action="store_true")
    add_executor_options(figure)
    figure.set_defaults(func=cmd_figure)

    table = sub.add_parser("table", help="regenerate a paper table/ablation")
    table.add_argument("name", choices=sorted(commands("table")))
    table.add_argument("--quick", action="store_true")
    table.add_argument("--seed", type=int, default=1)
    table.add_argument("--json", action="store_true")
    add_executor_options(table)
    table.set_defaults(func=cmd_table)

    sweep = sub.add_parser(
        "sweep",
        help="run an interval × seed grid through the sweep engine",
    )
    sweep.add_argument("--name", default="cli_sweep",
                       help="sweep name (reporting only)")
    sweep.add_argument(
        "--clients", default="video:56,video:56,video:56,video:56",
        help="comma list: video:<kbps> | web[:pages] | ftp[:bytes]",
    )
    sweep.add_argument("--intervals", default="100ms,500ms",
                       metavar="LIST",
                       help="comma list of burst intervals to sweep")
    sweep.add_argument("--seeds", default="0", metavar="LIST",
                       help="comma list and/or '<start>:<stop>' ranges")
    sweep.add_argument("--scheduler", choices=("dynamic", "static"),
                       default="dynamic")
    sweep.add_argument("--tcp-weight", type=float, default=0.0)
    sweep.add_argument("--duration", type=float, default=119.0)
    sweep.add_argument("--early-ms", type=float, default=6.0)
    sweep.add_argument("--reuse", action="store_true",
                       help="enable §5 schedule reuse")
    sweep.add_argument("--json", action="store_true",
                       help="emit {rows, report} as JSON")
    add_executor_options(sweep)
    sweep.set_defaults(func=cmd_sweep)

    report = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md from benchmarks/results"
    )
    report.add_argument("--results", default="benchmarks/results")
    report.add_argument("--output", default="EXPERIMENTS.md")
    report.add_argument("--refresh", action="store_true",
                        help="re-run every driver (through the sweep "
                             "engine) before rendering")
    report.add_argument("--quick", action="store_true",
                        help="with --refresh: CI-sized runs")
    add_executor_options(report)
    report.set_defaults(func=cmd_report)

    analyze = sub.add_parser(
        "analyze",
        help="run the simulation-invariant static analysis (lint) engine",
    )
    analyze.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    analyze.add_argument("--format",
                         choices=("text", "json", "github", "sarif"),
                         default="text")
    analyze.add_argument("--statistics", action="store_true",
                         help="append per-rule finding counts")
    analyze.set_defaults(func=cmd_analyze)

    loadtest = sub.add_parser(
        "loadtest",
        help="load-test the live proxy on loopback (optionally under chaos)",
    )
    loadtest.add_argument("--clients", type=int, default=8)
    loadtest.add_argument("--requests", type=int, default=4,
                          help="requests per client")
    loadtest.add_argument("--bytes", type=int, default=64_000,
                          help="bytes per request")
    loadtest.add_argument("--interval", default="50ms",
                          help="burst interval (e.g. 50ms, 0.1)")
    loadtest.add_argument("--pace-ms", type=float, default=0.0,
                          help="origin pacing per chunk (0 = blast)")
    loadtest.add_argument("--timeout", type=float, default=30.0,
                          help="per-request client timeout (seconds)")
    loadtest.add_argument("--seed", type=int, default=0,
                          help="chaos decision seed")
    loadtest.add_argument("--queue-high", type=int, default=2 * 1024 * 1024,
                          metavar="BYTES",
                          help="per-client queue high watermark")
    loadtest.add_argument("--queue-low", type=int, default=512 * 1024,
                          metavar="BYTES",
                          help="per-client queue low watermark")
    loadtest.add_argument("--silence-timeout", type=float, default=2.0,
                          help="uplink silence before slot reclaim (s)")
    loadtest.add_argument("--evict-timeout", type=float, default=6.0,
                          help="uplink silence before eviction (s)")
    chaos = loadtest.add_argument_group(
        "chaos (FaultPlan semantics on the wall clock; see "
        "repro.runtime.chaos)"
    )
    chaos.add_argument("--fault-loss", type=float, default=0.0,
                       metavar="RATE", help="iid control-datagram loss rate")
    chaos.add_argument("--fault-outage", action="append", default=[],
                       metavar="START:END",
                       help="origin-kill + control-blackout window "
                            "(repeatable)")
    chaos.add_argument("--fault-blackout", action="append", default=[],
                       metavar="START:END",
                       help="schedule-only blackout window (repeatable)")
    chaos.add_argument("--fault-churn", action="append", default=[],
                       metavar="CLIENT:LEAVE[:REJOIN]",
                       help="client vanish/rejoin event (repeatable)")
    loadtest.add_argument("--json", action="store_true")
    loadtest.set_defaults(func=cmd_loadtest)

    demo = sub.add_parser("demo", help="live asyncio proxy demo")
    demo.add_argument("--clients", type=int, default=2)
    demo.add_argument("--bytes", type=int, default=300_000)
    demo.add_argument("--interval", default="100ms")
    demo.add_argument("--json", action="store_true")
    demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        parser.error(str(exc))
        return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
