"""Rule registry and the per-module context handed to each rule."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.analysis.findings import Finding, Severity
from repro.errors import ConfigurationError

#: A rule check yields ``(line, col, message)`` triples.
RawFinding = tuple[int, int, str]


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one parsed module."""

    path: str
    module_path: str
    tree: ast.Module
    source: str
    lines: list[str] = field(default_factory=list)

    def in_scope(self, prefixes: Iterable[str]) -> bool:
        """True when this module falls under any of the path prefixes."""
        return any(self.module_path.startswith(p) for p in prefixes)


@dataclass(frozen=True)
class Rule:
    """A registered analysis rule."""

    id: str
    title: str
    rationale: str
    default_severity: Severity
    check: Callable[[ModuleContext], Iterator[RawFinding]]

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        for line, col, message in self.check(ctx):
            yield Finding(
                path=ctx.path,
                line=line,
                col=col,
                rule=self.id,
                severity=self.default_severity,
                message=message,
                module_path=ctx.module_path,
            )


RULES: dict[str, Rule] = {}


def rule(
    rule_id: str,
    title: str,
    rationale: str,
    severity: Severity = Severity.ERROR,
) -> Callable[[Callable[[ModuleContext], Iterator[RawFinding]]], Rule]:
    """Decorator registering a check function as a rule."""

    def wrap(check: Callable[[ModuleContext], Iterator[RawFinding]]) -> Rule:
        if rule_id in RULES:
            raise ConfigurationError(f"duplicate rule id {rule_id!r}")
        registered = Rule(
            id=rule_id,
            title=title,
            rationale=rationale,
            default_severity=severity,
            check=check,
        )
        RULES[rule_id] = registered
        return registered

    return wrap
