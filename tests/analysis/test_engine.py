"""Engine mechanics: suppressions and the module-path pragma."""

from repro.analysis import (
    PARSE_RULE,
    UNUSED_SUPPRESSION_RULE,
    analyze_source,
    module_path_for,
)
from repro.analysis.suppress import parse_suppressions


def analyze(source, module_path="experiments/fake.py"):
    return analyze_source(source, "fake.py", module_path)


class TestSuppressions:
    def test_noqa_suppresses_matching_rule(self):
        src = 'raise ValueError("x")  # repro: noqa[ERR001] -- intentional\n'
        assert analyze(src) == []

    def test_noqa_for_other_rule_does_not_suppress(self):
        src = 'raise ValueError("x")  # repro: noqa[DET001] -- wrong rule\n'
        rules = {f.rule for f in analyze(src)}
        assert "ERR001" in rules
        # ... and the mismatched waiver is itself reported as unused.
        assert UNUSED_SUPPRESSION_RULE in rules

    def test_multi_rule_noqa(self):
        src = 'raise ValueError("x")  # repro: noqa[ERR001,DET001] -- both\n'
        findings = analyze(src)
        # ERR001 suppressed; DET001 waiver unused.
        assert [f.rule for f in findings] == [UNUSED_SUPPRESSION_RULE]

    def test_unused_suppression_reported(self):
        src = "X = 1  # repro: noqa[ERR001] -- stale\n"
        findings = analyze(src)
        assert [f.rule for f in findings] == [UNUSED_SUPPRESSION_RULE]
        assert "ERR001" in findings[0].message

    def test_reason_is_parsed(self):
        found = parse_suppressions(
            "x = 1  # repro: noqa[ERR001] -- because reasons\n"
        )
        assert found[1].reason == "because reasons"
        assert found[1].rules == ("ERR001",)

    def test_noqa_inside_string_literal_is_ignored(self):
        src = 's = "# repro: noqa[ERR001] -- not a comment"\n'
        assert parse_suppressions(src) == {}


class TestEngine:
    def test_syntax_error_reported_as_parse_finding(self):
        findings = analyze("def broken(:\n")
        assert [f.rule for f in findings] == [PARSE_RULE]

    def test_module_path_pragma_overrides_location(self):
        src = (
            "# repro: module-path=sim/fake.py\n"
            "import socket\n"
        )
        assert {f.rule for f in analyze(src, module_path="outside.py")} == {
            "SIM001"
        }

    def test_module_path_for(self):
        from pathlib import Path

        assert module_path_for(
            Path("src/repro/core/scheduler.py")
        ) == "core/scheduler.py"
        assert module_path_for(Path("elsewhere/thing.py")) == "thing.py"

    def test_findings_sorted_by_location(self):
        src = "raise ValueError('b')\nraise ValueError('a')\n"
        findings = analyze(src)
        assert [f.line for f in findings] == [1, 2]
