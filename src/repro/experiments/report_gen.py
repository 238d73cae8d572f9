"""Generate EXPERIMENTS.md from the benchmark results and the claims table.

``pytest benchmarks/ --benchmark-only`` persists each experiment's rows
under ``benchmarks/results/*.json``. This module renders one section per
:data:`~repro.experiments.claims.ENTRIES` entry whose results exist: the
paper's statement, the rows, the entry's notes, and a claims table of
measured value, paper value, bound and verdict. Nothing here states a
verdict; :mod:`repro.experiments.claims` computes every one. Usable via
``python -m repro report``.

``refresh_results`` re-runs every driver without the benchmark harness
— all of them fan out through one shared
:class:`~repro.sweep.SweepEngine`, so a refresh is parallel and
warm-cache reruns cost nothing (``python -m repro report --refresh``).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Optional, Union

from repro.experiments.claims import ENTRIES, Entry, Verdict

PathLike = Union[str, pathlib.Path]

#: The seed the checked-in results are generated at.
RESULTS_SEED = 1


def refresh_results(
    results_dir: PathLike = "benchmarks/results",
    quick: bool = False,
    engine: Any = None,
) -> list[pathlib.Path]:
    """Re-run every driver and persist its rows; returns written paths.

    All drivers share ``engine`` (one is created when None), so a
    refresh inherits its cache and ``--jobs`` fan-out; the engine's
    accumulated reports say how much actually executed.
    """
    from repro.sweep import SweepEngine

    if engine is None:
        engine = SweepEngine()
    results_dir = pathlib.Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    written: list[pathlib.Path] = []
    for entry in ENTRIES:
        if entry.driver is None:
            continue
        rows = entry.load_driver()(seed=RESULTS_SEED, quick=quick, engine=engine)
        path = results_dir / f"{entry.name}.json"
        path.write_text(json.dumps(rows, indent=2, default=str) + "\n")
        written.append(path)
    return written


def format_cell(value: Any) -> str:
    """One table cell: floats to one decimal (two significant digits
    when that would round a non-zero value to 0.0), dicts inline."""
    if isinstance(value, float):
        if value and abs(value) < 0.05:
            return f"{value:.2g}"
        return f"{value:.1f}"
    if isinstance(value, dict):
        return " ".join(f"{k}:{format_cell(v)}" for k, v in value.items())
    if value is None:
        return "-"
    return str(value)


def _table(rows: list[dict], columns: tuple[str, ...]) -> str:
    lines = ["| " + " | ".join(columns) + " |"]
    lines.append("|" + "---|" * len(columns))
    for row in rows:
        lines.append(
            "| " + " | ".join(format_cell(row.get(col)) for col in columns) + " |"
        )
    return "\n".join(lines)


def _load(results_dir: pathlib.Path, name: str) -> Optional[list[dict]]:
    path = results_dir / f"{name}.json"
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    return [data] if isinstance(data, dict) else data


def claims_table(verdicts: list[Verdict]) -> list[str]:
    """One entry's claims table, then its known deviations."""
    lines = [
        "| claim | measured | paper | bound | verdict |",
        "|---|---|---|---|---|",
    ]
    for verdict in verdicts:
        measured = format_cell(verdict.measured) if verdict.found else "-"
        cells = (
            f"`{verdict.claim.id}`: {verdict.claim.text}", measured,
            verdict.paper, verdict.bound, verdict.text,
        )
        lines.append(
            "| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |"
        )
    reasons: dict[str, list[str]] = {}
    for verdict in verdicts:
        if verdict.claim.deviation and verdict.paper_holds is False:
            reasons.setdefault(verdict.claim.deviation, []).append(
                f"`{verdict.claim.id}`"
            )
    lines.append("")
    if reasons:
        lines += ["Known deviations:", ""]
        lines += [
            f"- {', '.join(ids)}: {reason}." for reason, ids in reasons.items()
        ]
        lines.append("")
    return lines


def _section(entry: Entry, rows: list[dict]) -> list[str]:
    lines = [f"## {entry.title}", ""]
    if entry.paper:
        lines += [f"Paper: {entry.paper}", ""]
    for note in entry.intro:
        lines += [note, ""]
    for view in entry.views:
        shown = [
            row for row in rows
            if view.where is None or row.get(view.where[0]) == view.where[1]
        ]
        if not shown:
            continue
        if view.caption:
            lines += [view.caption, ""]
        lines += [_table(shown, view.columns), ""]
    for note in entry.notes:
        lines += [note, ""]
    if entry.claims:
        lines += claims_table(entry.evaluate(rows))
    return lines


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
        "Each section ends with its claims from "
        "`src/repro/experiments/claims.py`: the measured value, the "
        "paper's value, the bound `pytest benchmarks/` asserts, and the "
        "verdict. `x` is the measured value; `≈` marks a value read off "
        "a paper graph, met when the bound around it holds. `holds` means "
        "the bound holds and the paper's value, if it states one, is met; "
        "`deviation` means the bound holds but the paper's value is "
        "missed, for the reason listed under the table. The live runtime's "
        "load test and the Perfetto trace export have no results file; "
        "README.md shows their commands and DESIGN.md §9 and §12 explain "
        "them.",
        "",
    ]
    for entry in ENTRIES:
        rows = _load(results_dir, entry.name)
        if rows:
            sections += _section(entry, rows)
    return "\n".join(sections)


def write_report(
    results_dir: PathLike = "benchmarks/results",
    output: PathLike = "EXPERIMENTS.md",
) -> pathlib.Path:
    """Render and write EXPERIMENTS.md; returns the output path."""
    output = pathlib.Path(output)
    output.write_text(generate_report(pathlib.Path(results_dir)) + "\n")
    return output

