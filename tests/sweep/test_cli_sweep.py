"""CLI surface of the sweep subsystem, plus the argparse guard rails."""

import json

import pytest

from repro.cli import main, parse_seeds
from repro.errors import ConfigurationError


class TestParseSeeds:
    def test_comma_list(self):
        assert parse_seeds("0,2,5") == [0, 2, 5]

    def test_range(self):
        assert parse_seeds("0:3") == [0, 1, 2]

    def test_mixed(self):
        assert parse_seeds("7,0:2") == [7, 0, 1]

    def test_garbage_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_seeds("one:two")

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_seeds(" , ")


class TestUnknownArtifactNames:
    """Unknown figures/tables die with a one-line parser error, not a
    KeyError traceback."""

    def test_unknown_figure_number(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "9"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: '9'" in err

    def test_unknown_table_name(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", "no-such-table"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'no-such-table'" in err


class TestSweepCommand:
    def _run(self, capsys, *extra):
        code = main([
            "sweep", "--clients", "video:56", "--intervals", "100ms",
            "--seeds", "0:2", "--duration", "4", "--json", *extra,
        ])
        assert code == 0
        return json.loads(capsys.readouterr().out)

    def test_json_carries_rows_and_report(self, capsys, tmp_path):
        data = self._run(capsys, "--cache-dir", str(tmp_path))
        assert len(data["rows"]) == 2
        assert data["report"]["total"] == 2
        assert data["report"]["executed"] == 2
        assert data["report"]["cache_hits"] == 0
        assert {"interval", "seed", "avg_saved_pct"} <= set(data["rows"][0])

    def test_second_invocation_is_all_cache_hits(self, capsys, tmp_path):
        cold = self._run(capsys, "--cache-dir", str(tmp_path))
        warm = self._run(capsys, "--cache-dir", str(tmp_path))
        assert warm["report"]["cache_hits"] == 2
        assert warm["report"]["executed"] == 0
        assert warm["rows"] == cold["rows"]

    def test_no_cache_always_executes(self, capsys, tmp_path):
        self._run(capsys, "--cache-dir", str(tmp_path))
        again = self._run(
            capsys, "--cache-dir", str(tmp_path), "--no-cache"
        )
        assert again["report"]["executed"] == 2
        assert again["report"]["cache_hits"] == 0

    def test_parallel_jobs_match_serial_rows(self, capsys, tmp_path):
        serial = self._run(capsys, "--no-cache")
        parallel = self._run(capsys, "--no-cache", "--jobs", "2")
        assert parallel["rows"] == serial["rows"]
        assert parallel["report"]["jobs"] == 2

    def test_rows_vary_seeds_fastest(self, capsys):
        code = main([
            "sweep", "--clients", "video:56", "--intervals", "100ms,500ms",
            "--seeds", "0:2", "--duration", "2", "--no-cache", "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert [(row["interval"], row["seed"]) for row in data["rows"]] == [
            (0.1, 0), (0.1, 1), (0.5, 0), (0.5, 1),
        ]
        assert [run["task"] for run in data["report"]["runs"]] == [
            "repro.sweep.spec:_experiment"
        ] * 4


class TestFigureCommandCache:
    @pytest.mark.slow
    def test_figure6_quick_warm_rerun_prints_identical_rows(
        self, capsys, tmp_path
    ):
        argv = [
            "figure", "6", "--quick", "--json",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold
