"""Steadiness check: run one workload several times and report spreads.

Usage, from the root of a checkout::

    # ten runs on seeds 1..10; median, quartiles and spread per metric
    python3 perfbench/steady.py run --workload campus_1k --runs 10 \\
        --seed 1 --out a.json
    # two sets of runs of the same code: do their medians agree?
    python3 perfbench/steady.py compare a.json b.json

The spread of a metric is (third quartile - first quartile) / median,
with the quartiles of ``statistics.quantiles(values, n=4)``. A metric
is steady when its spread is below a third of its bound in
``BENCHMARK.json``. Besides the end-to-end metrics, the table shows
the ungated figures of the run record (raw seconds, kernel time, live
request and jitter percentiles), so a noisy host period shows.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Run-record figures shown beside the end-to-end metrics.
RECORD_KEYS = (
    "setup_raw_s", "run_raw_s", "req_p50_ms", "req_p99_ms", "jitter_p99_ms",
)


def _manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bounds() -> dict[str, tuple[float, str]]:
    return {
        m["name"]: (m["bound"], m["better"]) for m in _manifest()["end_to_end"]
    }


def _one_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced run's metrics (with the record's raw figures), and
    its full run record."""
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        capture_output=True, text=True, check=True, timeout=600, cwd=ROOT,
    )
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for key in RECORD_KEYS:
        if key in record:
            values[key] = record[key]
    values["kernel_ms"] = statistics.median(record["kernel_s"]) * 1000.0
    values["failed"] = result["failed"]
    return values, record


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def cmd_run(args: argparse.Namespace) -> int:
    runs, records = [], []
    for seed in range(args.seed, args.seed + args.runs):
        values, record = _one_run(args.workload, seed, args.seconds)
        runs.append(values)
        records.append(record)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v:.4g}" for k, v in values.items()
        ), file=sys.stderr)
    bounds = _bounds()
    print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
          f"{'bound':>8}  steady")
    for name in runs[0]:
        median, q1, q3, share = spread([r[name] for r in runs])
        bound = bounds.get(name, (None, ""))[0]
        verdict = "" if bound is None else (
            "yes" if share < bound / 3 else "within" if share <= bound
            else "NO"
        )
        print(f"{name:<16}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{share:>9.3f}{bound if bound is not None else '':>8}"
              f"  {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "runs": runs, "records": records},
            indent=1,
        ))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    bounds = _bounds()
    worse_any = False
    print(f"{'metric':<16}{'median 1':>12}{'median 2':>12}{'worse by':>10}"
          f"{'bound':>8}")
    for name, (bound, better) in bounds.items():
        a = statistics.median(r[name] for r in first["runs"])
        b = statistics.median(r[name] for r in second["runs"])
        worse = (b - a) / a if better == "lower" else (a - b) / a
        flag = " OVER" if worse > bound else ""
        worse_any |= worse > bound
        print(f"{name:<16}{a:>12.5g}{b:>12.5g}{worse:>10.3f}{bound:>8}{flag}")
    return 1 if worse_any else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload several times")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None,
                     help="default: run_seconds from BENCHMARK.json")
    run.add_argument("--out", help="write the runs as JSON here")
    compare = sub.add_parser("compare", help="compare two saved sets")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args(argv)
    if args.command == "run":
        if args.seconds is None:
            args.seconds = _manifest()["run_seconds"]
        return cmd_run(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
