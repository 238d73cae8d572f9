"""Whole-package checks: the docstring's quickstart runs as written,
no module imports a name it never uses, and no call writes a metric by
name."""

import ast
import contextlib
import io
import re
import textwrap
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
#: Files the lint's F401 check skips too (see ``[tool.ruff]``).
CORPUS = ROOT / "tests" / "analysis" / "corpus"
#: ``# noqa`` alone, or with a code list that names F401.
NOQA_F401 = re.compile(r"#\s*noqa(?!:)|#\s*noqa:[^#]*\bF401\b")
#: The recorder's old by-name metric writers. A recorder hands out
#: instruments (``counter``, ``gauge``, ``histogram``) instead, so a
#: surviving call would fail only when its path runs.
BY_NAME_WRITERS = {"inc", "gauge_set", "observe"}


def _sources():
    """Every module under ``src`` and ``tests``, the analysis corpus
    excluded, as ``(path, text)``."""
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if CORPUS not in path.parents:
                yield path, path.read_text()


def test_package_quickstart_runs():
    code = textwrap.dedent(repro.__doc__.split("::\n", 1)[1])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "repro.__doc__", "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 10
    assert all(line.endswith("% saved") for line in lines)


def _names(node: ast.AST) -> set[str]:
    """Every name ``node`` reads, including those inside string
    annotations such as ``"Simulator"``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each name ``source`` imports and never
    references, module-wide (``__all__`` entries count as references)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[int, str]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*" or NOQA_F401.search(lines[alias.lineno - 1]):
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, bound))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used |= _names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= {
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return [(line, name) for line, name in imported if name not in used]


def test_unused_import_finder():
    source = textwrap.dedent(
        """
        from __future__ import annotations
        import os
        import json  # noqa: F401
        import sys  # noqa: E402
        from typing import Optional, Sequence
        from pkg import helper as tool
        from pkg import kept

        __all__ = ["kept"]

        def f(x: "Optional[int]") -> None:
            return tool(x)
        """
    )
    assert unused_imports(source) == [(3, "os"), (5, "sys"), (6, "Sequence")]


def test_no_unused_imports():
    """The F401 class of the CI lint step, checked where ruff is not
    installed (it does not replace that step)."""
    found = []
    for path, source in _sources():
        if path.name == "__init__.py":
            continue
        found += [
            f"{path.relative_to(ROOT)}:{line} {name}"
            for line, name in unused_imports(source)
        ]
    assert not found, "imported but never used:\n" + "\n".join(found)


def by_name_writes(source: str) -> list[int]:
    """Lines of each ``inc``, ``gauge_set`` or ``observe`` call whose
    first positional argument is a string literal."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in BY_NAME_WRITERS
        and node.args
        and (
            isinstance(node.args[0], ast.JoinedStr)
            or isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        )
    ]


def test_by_name_write_finder():
    source = textwrap.dedent(
        """
        obs.inc("drops", reason="overload")
        obs.gauge_set(f"{prefix}.depth", 3)
        obs.counter("drops", reason="overload").inc()
        obs.histogram("lateness_s", SECONDS_BUCKETS).observe(0.1)
        counter.inc(2)
        obs.observe(
            "lateness_s", 0.1, buckets=SECONDS_BUCKETS,
        )
        """
    )
    assert by_name_writes(source) == [2, 3, 7]


def test_no_metric_is_written_by_name():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path, source in _sources()
        for line in by_name_writes(source)
    ]
    assert not found, (
        "metric written by name; write through the instrument "
        "Recorder.counter/gauge/histogram hands out:\n" + "\n".join(found)
    )
