"""Module-level task functions for the sweep engine tests.

They live in their own importable module (not a test file) so worker
processes can import them by ``module:qualname`` when a pickled chunk
names them.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib


def double(x: int) -> int:
    return 2 * x


def maybe_none(x: int) -> int | None:
    """Returns None for even inputs — exercises cached-None handling."""
    return None if x % 2 == 0 else x


def fail_always(x: int) -> int:
    raise ValueError(f"boom {x}")


def fail_once(marker: str, x: int) -> int:
    """Fails on the first call, succeeds once the marker exists."""
    path = pathlib.Path(marker)
    if path.exists():
        return x
    path.write_text("attempted")
    raise RuntimeError("first attempt fails")


def die(x: int) -> int:
    """Kills the worker process that runs it, as an OOM kill would.

    Refuses to run in the main process, where it would end the tests.
    """
    if multiprocessing.parent_process() is None:
        raise RuntimeError("die() runs only in a pool worker")
    os._exit(1)
