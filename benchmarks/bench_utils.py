"""Shared helpers for the benchmark harness.

Every benchmark prints the paper-style rows *and* persists them as JSON
under ``benchmarks/results/`` so EXPERIMENTS.md can be regenerated and
diffed without re-running the sweeps. :func:`check_claims` asserts the
bounds of the rows' entry in :mod:`repro.experiments.claims`.

Two kinds of file:

* ``<name>.json`` — the latest rows (overwritten each run; what the
  report generator reads), written by every benchmark;
* ``BENCH_<name>.json`` — the *trajectory*: one timestamped entry
  appended per run, so timing drift is visible across commits. Only
  the timing benchmarks, whose rows change from run to run, keep one;
  a deterministic benchmark's rows are already tracked by its rows
  file, so a run that reproduces them leaves the checkout clean.
"""

from __future__ import annotations

import json
import pathlib
from datetime import datetime, timezone
from typing import Any, Optional, Sequence

from repro.experiments.claims import Entry, normalize
from repro.experiments.report_gen import claims_table, format_cell

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def save_results(name: str, rows: Any) -> pathlib.Path:
    """Persist ``rows`` (list/dict) as benchmarks/results/<name>.json."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(rows, indent=2, default=str) + "\n")
    return path


def append_trajectory(
    name: str, rows: Any, meta: Optional[dict] = None
) -> pathlib.Path:
    """Append one run's rows to benchmarks/results/BENCH_<name>.json."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    try:
        history = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        history = []
    entry: dict = {
        "recorded_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "rows": rows,
    }
    if meta:
        entry["meta"] = meta
    history.append(entry)
    path.write_text(json.dumps(history, indent=2, default=str) + "\n")
    return path


def print_table(title: str, rows: list[dict], columns: Sequence[str]) -> None:
    """Print rows as a fixed-width table (the paper-figure data)."""
    print(f"\n=== {title} ===")
    widths = {
        col: max(len(col), *(len(format_cell(row.get(col))) for row in rows))
        for col in columns
    }
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            "  ".join(
                format_cell(row.get(col)).ljust(widths[col]) for col in columns
            )
        )


def check_claims(entry: Entry, rows: Any) -> None:
    """Print the entry's rows and claims; fail on any claim whose bound
    does not hold (or whose value the rows lack)."""
    listed = normalize(rows)
    for view in entry.views:
        print_table(entry.title, listed, view.columns)
    verdicts = entry.evaluate(listed)
    print("\n".join(claims_table(verdicts)))
    failed = [
        f"{v.claim.id}: {v.claim.text} = {v.measured!r}, bound {v.bound}"
        for v in verdicts
        if not v.bound_holds
    ]
    assert not failed, f"{entry.name} claims fail: " + "; ".join(failed)
