"""The claims table against the checked-in results and EXPERIMENTS.md."""

import json
import pathlib

import pytest

from repro.experiments.claims import BY_NAME, ENTRIES, normalize
from repro.experiments.report_gen import generate_report

ROOT = pathlib.Path(__file__).resolve().parents[2]
RESULTS = ROOT / "benchmarks" / "results"

CLAIMED = [entry for entry in ENTRIES if entry.claims]


def _saved_rows(name):
    return json.loads((RESULTS / f"{name}.json").read_text())


@pytest.mark.parametrize("entry", CLAIMED, ids=[e.name for e in CLAIMED])
def test_every_claim_holds_its_bound_on_the_saved_results(entry):
    failed = [
        (v.claim.id, v.measured, v.bound)
        for v in entry.evaluate(_saved_rows(entry.name))
        if not v.bound_holds
    ]
    assert not failed


@pytest.mark.parametrize("entry", CLAIMED, ids=[e.name for e in CLAIMED])
def test_every_paper_miss_is_declared_and_no_declared_miss_is_stale(entry):
    wrong = [
        (v.claim.id, v.measured, v.paper, v.text)
        for v in entry.evaluate(_saved_rows(entry.name))
        if not v.ok
    ]
    assert not wrong


def test_deviation_reasons_are_one_line_and_name_a_paper_value():
    for entry in ENTRIES:
        for claim in entry.claims:
            if claim.deviation is not None:
                assert claim.paper is not None, claim.id
                assert "\n" not in claim.deviation, claim.id


def test_claim_ids_are_unique_within_an_entry():
    for entry in ENTRIES:
        ids = [claim.id for claim in entry.claims]
        assert len(ids) == len(set(ids)), entry.name


def test_experiments_md_is_the_generated_report():
    expected = generate_report(RESULTS) + "\n"
    assert (ROOT / "EXPERIMENTS.md").read_text() == expected


def test_every_rendered_results_file_has_an_entry():
    stems = {
        path.stem for path in RESULTS.glob("*.json")
        if not path.stem.startswith("BENCH_")
    }
    assert stems == set(BY_NAME)


def test_driver_rows_and_saved_rows_read_alike():
    # A driver returns int fidelity keys; the JSON file has strings.
    entry = BY_NAME["figure7"]
    saved = _saved_rows("figure7")
    live = [
        dict(row, video_energy_used_pct={
            int(rate): used
            for rate, used in row["video_energy_used_pct"].items()
        })
        for row in saved
    ]
    assert normalize(live) == saved
    assert [v.measured for v in entry.evaluate(live)] == [
        v.measured for v in entry.evaluate(saved)
    ]
    assert all(v.bound_holds for v in entry.evaluate(live))


def test_a_moved_value_fails_its_bound():
    rows = _saved_rows("figure4")
    for row in rows:
        if (row["interval"], row["pattern"]) == ("500ms", "56K"):
            row["avg_saved_pct"] = 60.0
    failed = {
        v.claim.id for v in BY_NAME["figure4"].evaluate(rows)
        if not v.bound_holds
    }
    assert "saved[500ms,56K]" in failed


def test_a_deviation_that_meets_the_paper_is_flagged():
    rows = _saved_rows("figure6")
    least = min(row["total_waste_j"] for row in rows)
    for row in rows:
        if row["early_ms"] == 6:
            row["total_waste_j"] = least - 1.0
    stale = [
        v for v in BY_NAME["figure6"].evaluate(rows)
        if v.claim.id == "least-waste"
    ]
    assert stale[0].paper_holds and not stale[0].ok
    assert "drop the deviation" in stale[0].text


def test_missing_rows_are_reported_not_raised():
    verdicts = BY_NAME["figure4"].evaluate([])
    assert verdicts and all(not v.found and not v.ok for v in verdicts)
    assert {v.text for v in verdicts} == {"**no data**"}


def test_cli_spellings_resolve_to_importable_drivers():
    from repro.experiments.claims import commands

    assert sorted(commands("figure")) == [
        "4", "5", "6", "7", "campus", "pareto",
    ]
    assert set(commands("table")) == {
        "ablation", "compensators", "drops-dummynet", "drops-netfilter",
        "memory", "optimal", "psm", "reuse", "static-dynamic", "tcp-only",
    }
    for entry in ENTRIES:
        if entry.driver is not None:
            assert callable(entry.load_driver()), entry.name


def test_every_driver_takes_exactly_what_its_callers_pass():
    """``repro figure``, ``repro table`` and ``refresh_results`` pass
    ``seed``, ``quick`` and ``engine`` (and the Pareto sweep its
    ``policies``); a driver knob no caller sets is a constant instead."""
    import inspect

    for entry in ENTRIES:
        if entry.driver is None:
            continue
        expected = ["seed", "quick", "engine"]
        if entry.name == "pareto":
            expected.insert(2, "policies")
        params = list(inspect.signature(entry.load_driver()).parameters)
        assert params == expected, entry.name
