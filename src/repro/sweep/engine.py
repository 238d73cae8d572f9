"""The sweep executor: cache lookup, fan-out, failure isolation,
aggregation.

Determinism contract: aggregated results are ordered by spec index and
are **byte-identical** between ``jobs=1`` and ``jobs=N`` — every task is
a pure function of its parameters (the simulator replays from the
seed), execution order cannot leak into results, and cache state only
decides *whether* a run executes, never what it returns. Wall-clock
readings exist only inside the :class:`ExecutionReport`, which is
reporting, not data.
"""

from __future__ import annotations

import pickle
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import ConfigurationError, SweepExecutionError
from repro.sweep.cache import ResultCache, run_key
from repro.sweep.pool import chunk_runs, shared_pool
from repro.sweep.spec import RunSpec, SweepSpec


@dataclass
class RunRecord:
    """What happened to one run (per-run slice of the report).

    ``task`` is the task function's ``module:qualname``.
    """

    index: int
    task: str
    key: str
    cached: bool = False
    wall_s: float = 0.0
    error: Optional[str] = None


@dataclass
class ExecutionReport:
    """The accounting of one engine invocation."""

    spec_name: str
    jobs: int
    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    failures: int = 0
    corrupt_cache_entries: int = 0
    wall_s: float = 0.0
    #: One record per run; a spec's report holds them in index order.
    runs: list[RunRecord] = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-ready summary (per-run detail included)."""
        return {
            "spec": self.spec_name,
            "jobs": self.jobs,
            "total": self.total,
            "cache_hits": self.cache_hits,
            "cache_misses": self.total - self.cache_hits,
            "executed": self.executed,
            "failures": self.failures,
            "corrupt_cache_entries": self.corrupt_cache_entries,
            "wall_s": self.wall_s,
            "runs": [
                {
                    "index": record.index,
                    "task": record.task,
                    "key": record.key,
                    "cached": record.cached,
                    "wall_s": record.wall_s,
                    "error": record.error,
                }
                for record in self.runs
            ],
        }

    def summary(self) -> str:
        """One human line: ``15 runs: 12 hits, 3 executed, ...``."""
        return (
            f"{self.spec_name}: {self.total} runs — "
            f"{self.cache_hits} cache hits, {self.executed} executed, "
            f"{self.failures} failures "
            f"(jobs={self.jobs}, {self.wall_s:.2f}s)"
        )


@dataclass
class SweepOutcome:
    """Aggregated results (spec order) plus the execution report."""

    spec: SweepSpec
    results: list[Any]
    report: ExecutionReport


def _execute_run(
    task: Callable[..., Any], params: dict
) -> tuple[bool, Any]:
    """Worker entry: run one task, never raise across the boundary.

    Returns ``(ok, payload)`` where payload is the task's result, as
    it returned it, or a formatted traceback string. A swept
    experiment runs unobserved (see :func:`repro.sweep.spec._experiment`),
    so its result carries no recorder across the process or cache
    boundary. Exceptions must not cross process boundaries raw — some
    are unpicklable, and one bad run must not take down the pool
    (per-run failure isolation).
    """
    try:
        return True, task(**params)
    except Exception:  # repro: noqa[ERR002] -- isolation: the traceback crosses the process boundary as data and is re-raised by the engine
        return False, traceback.format_exc()


class SweepEngine:
    """Runs :class:`SweepSpec`s against the cache and a worker pool.

    Args:
        jobs: worker processes; ``1`` (default) runs serially in-process.
        cache: a :class:`ResultCache`, or None to disable caching.

    A run whose task raises, or whose worker dies, fails once; the
    other runs still finish and reach the cache, and then the spec
    raises :class:`SweepExecutionError`. Tasks are pure functions of
    their parameters, so a rerun of the spec executes only the failed
    runs.
    """

    def __init__(
        self, jobs: int = 1, cache: Optional[ResultCache] = None
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        #: Reports of every spec this engine has run, in order.
        self.reports: list[ExecutionReport] = []

    @property
    def last_report(self) -> Optional[ExecutionReport]:
        return self.reports[-1] if self.reports else None

    def combined_report(self) -> ExecutionReport:
        """All accumulated reports folded into one (name ``combined``)."""
        combined = ExecutionReport(spec_name="combined", jobs=self.jobs)
        for report in self.reports:
            combined.total += report.total
            combined.cache_hits += report.cache_hits
            combined.executed += report.executed
            combined.failures += report.failures
            combined.corrupt_cache_entries += report.corrupt_cache_entries
            combined.wall_s += report.wall_s
            combined.runs.extend(report.runs)
        return combined

    # -- execution ---------------------------------------------------------

    def run(self, spec: SweepSpec) -> SweepOutcome:
        """Execute a spec; results come back in spec order."""
        started = time.perf_counter()
        report = ExecutionReport(
            spec_name=spec.name, jobs=self.jobs, total=len(spec)
        )
        results: list[Any] = [None] * len(spec)
        pending: list[RunSpec] = []

        corrupt_before = self.cache.corrupt_entries if self.cache else 0
        for run in spec:
            task = f"{run.task.__module__}:{run.task.__qualname__}"
            key = run_key(task, dict(run.params))
            record = RunRecord(index=run.index, task=task, key=key)
            report.runs.append(record)
            hit = self.cache.get(key) if self.cache is not None else None
            if hit is not None:
                record.cached = True
                report.cache_hits += 1
                results[run.index] = hit[0]
            else:
                pending.append(run)

        if pending:
            if self.jobs == 1 or len(pending) == 1:
                self._run_serial(pending, results, report)
            else:
                self._run_parallel(pending, results, report)

        if self.cache is not None:
            report.corrupt_cache_entries = (
                self.cache.corrupt_entries - corrupt_before
            )
        report.wall_s = time.perf_counter() - started
        self.reports.append(report)

        failed = [r for r in report.runs if r.error is not None]
        if failed:
            detail = "; ".join(f"run {r.index} ({r.task})" for r in failed)
            first_trace = failed[0].error or ""
            raise SweepExecutionError(
                f"sweep {spec.name!r}: {len(failed)} run(s) failed: "
                f"{detail}\n{first_trace}"
            )
        return SweepOutcome(spec=spec, results=results, report=report)

    # -- serial / parallel backends ---------------------------------------

    def _finish_run(
        self,
        run: RunSpec,
        ok: bool,
        payload: Any,
        wall_s: float,
        results: list[Any],
        report: ExecutionReport,
    ) -> None:
        record = report.runs[run.index]
        record.wall_s = wall_s
        if ok:
            report.executed += 1
            results[run.index] = payload
            if self.cache is not None:
                self.cache.put(record.key, record.task, payload)
        else:
            report.failures += 1
            record.error = payload

    def _run_serial(
        self,
        pending: list[RunSpec],
        results: list[Any],
        report: ExecutionReport,
    ) -> None:
        for run in pending:
            started = time.perf_counter()
            ok, payload = _execute_run(run.task, dict(run.params))
            if ok:
                # The same pickle round-trip a result crossing the
                # process boundary takes: without it, serial results
                # share in-process singletons (memoized on aggregate
                # pickling) while parallel ones arrive as independent
                # graphs, and the byte-identity contract breaks.
                payload = pickle.loads(pickle.dumps(payload))
            self._finish_run(
                run, ok, payload, time.perf_counter() - started,
                results, report,
            )

    def _run_parallel(
        self,
        pending: list[RunSpec],
        results: list[Any],
        report: ExecutionReport,
    ) -> None:
        """Fan pending runs out over the shared warm pool.

        Runs are dispatched in contiguous chunks (one pickling round
        trip for several short runs); chunk composition is pure
        transport and cannot affect results. A chunk that fails as a
        whole — a dead worker (OOM, signal) breaks every unfinished
        chunk with ``BrokenProcessPool`` — fails each of its runs, and
        the pool is shut down so the next submit spawns fresh workers.
        """
        workers = min(self.jobs, len(pending))
        pool = shared_pool(workers)
        chunks = {
            pool.submit_chunk(
                [(run.task, dict(run.params)) for run in pending[start:stop]]
            ): pending[start:stop]
            for start, stop in chunk_runs(len(pending), workers)
        }
        broken = False
        for future, runs in chunks.items():
            try:
                triples = future.result()
            except Exception:  # repro: noqa[ERR002] -- isolation: a dead worker fails its chunk's runs, which the engine re-raises once every run is done
                broken = True
                triples = [(False, traceback.format_exc(), 0.0)] * len(runs)
            for run, (ok, payload, wall_s) in zip(runs, triples):
                self._finish_run(run, ok, payload, wall_s, results, report)
        if broken:
            pool.shutdown()
