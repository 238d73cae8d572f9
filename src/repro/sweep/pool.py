"""Persistent warm worker pool for sweep fan-out.

The engine used to build a fresh ``ProcessPoolExecutor`` per sweep, so
every invocation paid worker startup plus the ``repro`` import graph
before its first run — on the quick grids that overhead swamped the
simulations and made ``--jobs 2`` *slower* than serial. The warm pool
fixes both cost centers:

* **persistence** — one pool per process, created on first parallel
  sweep and reused by every later one (shut down at interpreter exit,
  or by the engine when a worker dies, so the next submit spawns fresh
  workers);
* **preloaded workers** — each worker imports the modules the sweep
  tasks live in once at spawn, so the first dispatched run starts
  simulating immediately.

Dispatch is *chunked*: the engine groups short runs into one submission
so a 15-run grid costs a handful of pickling round trips instead of 15.
Each task function travels by reference (``module:qualname``) and is
imported in the worker. Chunking is pure transport — tasks are pure
functions of their parameters, so grouping cannot leak into results
(the byte-identity contract of :mod:`repro.sweep.engine`).
"""

from __future__ import annotations

import atexit
import importlib
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Optional

#: Modules every worker imports at spawn: the ones the sweep tasks live
#: in, with their transitive simulation imports.
PRELOAD_MODULES: tuple[str, ...] = (
    "repro.experiments.runner",
    "repro.experiments.figures",
    "repro.experiments.baselines",
    "repro.experiments.tables",
    "repro.energy.replay",
    "repro.sweep.engine",
)

#: Target chunks per worker: >1 so stragglers rebalance, small enough
#: that chunking still amortizes dispatch overhead.
CHUNKS_PER_WORKER = 4


def _warm_worker(modules: tuple[str, ...]) -> None:
    """Worker initializer: preload heavy modules."""
    for name in modules:
        importlib.import_module(name)


def _run_chunk(
    items: list[tuple[Callable[..., Any], dict]],
) -> list[tuple[bool, Any, float]]:
    """Worker entry: execute a chunk of runs, one result triple each.

    Returns ``(ok, payload, wall_s)`` per item — the wall clock is
    measured here, in the worker, so per-run timings stay honest under
    chunking. Failures are caught per run (`_execute_run` never
    raises), so one bad run cannot poison its chunkmates.
    """
    from repro.sweep.engine import _execute_run

    out = []
    for task, params in items:
        started = time.perf_counter()
        ok, payload = _execute_run(task, params)
        out.append((ok, payload, time.perf_counter() - started))
    return out


class WarmPool:
    """A reusable process pool with preloaded workers."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self) -> None:
        """Terminate the workers (the next submit re-spawns them)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # -- dispatch ----------------------------------------------------------

    def submit_chunk(
        self, items: list[tuple[Callable[..., Any], dict]]
    ) -> Future:
        """Submit one chunk of ``(task, params)`` runs.

        A dead worker breaks the executor: the futures of the chunks in
        flight raise ``BrokenProcessPool``, and so does the future
        returned for a chunk submitted after the break.
        """
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_warm_worker,
                initargs=(PRELOAD_MODULES,),
            )
        try:
            return self._executor.submit(_run_chunk, items)
        except BrokenProcessPool as exc:
            future: Future = Future()
            future.set_exception(exc)
            return future


#: The per-process shared pool (lazily created, resized on demand).
_shared: Optional[WarmPool] = None


def shared_pool(workers: int) -> WarmPool:
    """The process-wide warm pool, grown (never shrunk) to ``workers``.

    Reusing a larger-than-requested pool keeps its workers warm; the
    extras just idle. Asking for more workers than the current pool has
    rebuilds it at the larger size.
    """
    global _shared
    if _shared is None:
        _shared = WarmPool(workers)
        atexit.register(_shutdown_shared)
    elif _shared.workers < workers:
        _shared.shutdown()
        _shared = WarmPool(workers)
    return _shared


def _shutdown_shared() -> None:
    if _shared is not None:
        _shared.shutdown()


def chunk_runs(count: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` chunk bounds for ``count`` runs.

    Aims for :data:`CHUNKS_PER_WORKER` chunks per worker so slow chunks
    rebalance across the pool, while short grids still batch several
    runs per dispatch.
    """
    if count <= 0:
        return []
    n_chunks = min(count, max(1, workers * CHUNKS_PER_WORKER))
    size, extra = divmod(count, n_chunks)
    bounds = []
    start = 0
    for i in range(n_chunks):
        stop = start + size + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


__all__ = [
    "CHUNKS_PER_WORKER",
    "PRELOAD_MODULES",
    "WarmPool",
    "chunk_runs",
    "shared_pool",
]
