"""End-to-end `python -m repro analyze` behavior and the repo gate."""

import json
from pathlib import Path

from repro.cli import main

REPO = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).parent / "corpus"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_repo_tree_is_clean(capsys):
    """The headline gate: the whole src tree has zero findings."""
    code, out = run(["analyze", str(REPO / "src")], capsys)
    assert code == 0, out
    assert "no findings" in out


def test_bad_corpus_fails(capsys):
    code, out = run(["analyze", str(CORPUS)], capsys)
    assert code == 1
    assert "ERR001" in out


def test_single_good_fixture_passes(capsys):
    good = next(CORPUS.glob("*/good_*.py"))
    code, _ = run(["analyze", str(good)], capsys)
    assert code == 0


def test_json_output(capsys):
    bad = str(CORPUS / "ERR001" / "bad_generic_raise.py")
    code, out = run(["analyze", bad, "--format", "json"], capsys)
    assert code == 1
    rows = json.loads(out)
    assert any(r["rule"] == "ERR001" for r in rows)


def test_github_output(capsys):
    bad = str(CORPUS / "ERR001" / "bad_generic_raise.py")
    code, out = run(["analyze", bad, "--format", "github"], capsys)
    assert code == 1
    assert out.startswith("::error ")


def test_statistics_flag(capsys):
    bad = str(CORPUS / "ERR001" / "bad_generic_raise.py")
    code, out = run(["analyze", bad, "--statistics"], capsys)
    assert code == 1
    assert "total" in out


def test_stale_waiver_fails_even_with_baseline(tmp_path, capsys):
    """A waiver that no longer suppresses anything fails the gate as
    SUP001, so the waiver inventory cannot rot."""
    stale = tmp_path / "stale.py"
    stale.write_text("x = 1  # repro: noqa[ERR001] -- nothing raises\n")
    code, out = run(["analyze", str(stale)], capsys)
    assert code == 1
    assert "SUP001" in out


def test_sarif_output(capsys):
    bad = str(CORPUS / "ASY003" / "bad_unbounded_network.py")
    code, out = run(["analyze", bad, "--format", "sarif"], capsys)
    assert code == 1
    log = json.loads(out)
    assert log["version"] == "2.1.0"
    results = log["runs"][0]["results"]
    assert any(r["ruleId"] == "ASY003" for r in results)

