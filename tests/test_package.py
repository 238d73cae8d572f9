"""The package docstring's quickstart runs as written."""

import contextlib
import io
import textwrap

import repro


def test_package_quickstart_runs():
    code = textwrap.dedent(repro.__doc__.split("::\n", 1)[1])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "repro.__doc__", "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 10
    assert all(line.endswith("% saved") for line in lines)
