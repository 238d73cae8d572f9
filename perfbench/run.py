"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig4_grid --seed 0 --seconds 10 --trace 0

The program is imported from the checkout's ``src`` tree. Stdout ends
with two JSON lines: the run record (raw seconds, kernel samples,
checks, latency figures) and the result object, whose ``metrics`` are
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0`` and its
per-layer metrics with ``--trace 1``. A traced run first runs the same
workload untraced in a child process, for ``trace.overhead``.

Each workload times a fixed pass of work and runs for at least
``--seconds``: the figure grids repeat whole passes until that time has
passed, ``live_proxy`` sends request batches until it has and at least
1000 requests are done, and ``campus_1k`` always runs one pass (about
20 s), since repeating it in one process slows it.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("fig4_grid", "fig5_tcp", "campus_1k", "live_proxy")


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path[:0] = [str(ROOT), str(SRC)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: repro imported from {repro.__file__}, not {SRC}")


def _workload(workload: str) -> Callable:
    """The workload's ``(seed, seconds, tracer) -> Measured``; importing
    it imports the program."""
    if workload == "live_proxy":
        from perfbench.live import run_live

        return run_live
    from perfbench.simwork import run_campus, run_grid

    if workload == "campus_1k":
        return run_campus
    return functools.partial(run_grid, workload)


def _untraced_run_s(args: argparse.Namespace) -> float:
    """``run_s`` of the same workload, untraced, in a child process."""
    done = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ],
        capture_output=True, text=True, check=True, timeout=170,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["metrics"]["run_s"]["value"]


def _per_layer(measured, tracer, untraced_run_s: float) -> dict:
    """The traced run's per-layer metrics: wrapped-function figures per
    pass of the timed phase, then the program's counters."""
    from perfbench.kernel import KERNEL_NOMINAL_S
    from perfbench.layers import COUNTERS

    scale = KERNEL_NOMINAL_S / statistics.median(measured.record["kernel_s"])
    values = {
        name: value / measured.passes
        for name, value in tracer.metrics(scale).items()
    }
    for name, _, _ in COUNTERS:
        values[name] = measured.counters.get(name, 0)
    values["trace.overhead"] = measured.run_s / untraced_run_s - 1.0
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    from perfbench.kernel import program_peak_rss_mb, table_footprint_mb
    from perfbench.layers import LAYERS
    from perfbench.trace import LayerTracer

    tracer = None
    untraced_run_s = 0.0
    if args.trace:
        untraced_run_s = _untraced_run_s(args)
        tracer = LayerTracer(LAYERS)
    measure = _workload(args.workload)
    # The kernel's table is the benchmark's, not the program's: build it
    # now and leave it out of the memory figure.
    table_mb = table_footprint_mb()
    measured = measure(args.seed, args.seconds, tracer)
    peak_rss_mb = program_peak_rss_mb(table_mb)

    if tracer is None:
        metrics = {
            "setup_s": (measured.setup_s, "s"),
            "run_s": (measured.run_s, "s"),
            "sim_rate": (measured.client_s / measured.run_s, "client-s/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        from perfbench.layers import unit_of

        metrics = {
            name: (value, unit_of(name))
            for name, value in _per_layer(
                measured, tracer, untraced_run_s
            ).items()
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_raw_s": measured.setup_raw_s,
        "run_raw_s": measured.run_raw_s,
        "client_s": measured.client_s,
        "peak_rss_mb": peak_rss_mb,
        "kernel_table_mb": table_mb,
        "missing_layers": tracer.missing if tracer is not None else [],
        **measured.record,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
