"""File walking, rule dispatch, and suppression accounting."""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis import async_rules as _async_rules  # noqa: F401
from repro.analysis import rules as _rules  # noqa: F401  (registers rules)
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import RULES, ModuleContext
from repro.analysis.suppress import parse_suppressions

#: Engine-level pseudo-rules (not in the registry; never scope-limited).
PARSE_RULE = "E000"
UNUSED_SUPPRESSION_RULE = "SUP001"

#: Pragma letting a file declare the package location it should be
#: analyzed as (used by the self-test corpus to exercise scoped rules):
#: ``# repro: module-path=core/fake.py`` within the first lines.
_MODULE_PATH_PRAGMA = re.compile(r"#\s*repro:\s*module-path=(\S+)")
_PRAGMA_SCAN_LINES = 5


def module_path_for(path: Path) -> str:
    """Package-relative path used for rule scoping.

    ``src/repro/core/scheduler.py`` -> ``core/scheduler.py``. Files that
    do not live under a ``repro`` package keep their name, which leaves
    them out of every directory-scoped rule.
    """
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1:])
    return path.name


def analyze_source(source: str, path: str, module_path: str) -> list[Finding]:
    """Run every rule over one module's source text."""
    for text in source.splitlines()[:_PRAGMA_SCAN_LINES]:
        pragma = _MODULE_PATH_PRAGMA.search(text)
        if pragma is not None:
            module_path = pragma.group(1)
            break
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule=PARSE_RULE,
                severity=Severity.ERROR,
                message=f"syntax error: {exc.msg}",
                module_path=module_path,
            )
        ]

    ctx = ModuleContext(
        path=path,
        module_path=module_path,
        tree=tree,
        source=source,
        lines=source.splitlines(),
    )
    suppressions = parse_suppressions(source)

    active: list[Finding] = []
    for rule_id in sorted(RULES):
        for finding in RULES[rule_id].run(ctx):
            suppression = suppressions.get(finding.line)
            if suppression is not None and suppression.covers(finding.rule):
                suppression.used.add(finding.rule)
                continue
            active.append(finding)

    for suppression in suppressions.values():
        for rule_id in suppression.unused_rules():
            active.append(
                Finding(
                    path=path,
                    line=suppression.line,
                    col=0,
                    rule=UNUSED_SUPPRESSION_RULE,
                    severity=Severity.WARNING,
                    message=(
                        f"unused suppression for {rule_id}; remove the "
                        "noqa or re-trigger the rule"
                    ),
                    module_path=module_path,
                )
            )

    active.sort()
    return active


def analyze_file(path: Path) -> list[Finding]:
    source = path.read_text(encoding="utf-8")
    return analyze_source(source, str(path), module_path_for(path))


def iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    """Yield .py files under ``paths`` in a deterministic order."""
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def analyze_paths(paths: Sequence[str | Path]) -> list[Finding]:
    """Analyze every python file under ``paths``; findings are sorted."""
    findings: list[Finding] = []
    for path in iter_python_files([Path(p) for p in paths]):
        findings.extend(analyze_file(path))
    findings.sort()
    return findings
