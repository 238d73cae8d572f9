"""The sweep executor: cache lookup, fan-out, retries, aggregation.

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
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ConfigurationError, SweepExecutionError
from repro.sweep.cache import ResultCache, run_key
from repro.sweep.pool import chunk_runs, shared_pool
from repro.sweep.spec import RunSpec, SweepSpec
from repro.sweep.tasks import resolve_task, task_targets


@dataclass
class RunRecord:
    """What happened to one run (per-run slice of the report)."""

    index: int
    task: str
    key: str
    cached: bool = False
    attempts: int = 0
    wall_s: float = 0.0
    error: Optional[str] = None
    label: dict = field(default_factory=dict)


@dataclass
class ExecutionReport:
    """The accounting of one engine invocation."""

    spec_name: str
    jobs: int
    total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    retries: int = 0
    failures: int = 0
    corrupt_cache_entries: int = 0
    wall_s: float = 0.0
    runs: list[RunRecord] = field(default_factory=list)

    @property
    def simulation_runs(self) -> int:
        """How many simulations actually ran (0 on a fully warm cache)."""
        return self.executed

    def as_dict(self) -> dict:
        """JSON-ready summary (per-run detail included)."""
        return {
            "spec": self.spec_name,
            "jobs": self.jobs,
            "total": self.total,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "executed": self.executed,
            "retries": self.retries,
            "failures": self.failures,
            "corrupt_cache_entries": self.corrupt_cache_entries,
            "wall_s": self.wall_s,
            "runs": [
                {
                    "index": record.index,
                    "task": record.task,
                    "key": record.key,
                    "cached": record.cached,
                    "attempts": record.attempts,
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
            f"{self.retries} retries, {self.failures} failures "
            f"(jobs={self.jobs}, {self.wall_s:.2f}s)"
        )


@dataclass
class SweepOutcome:
    """Aggregated results (spec order) plus the execution report."""

    spec: SweepSpec
    results: list[Any]
    report: ExecutionReport


def _execute_run(task: str, params: dict) -> tuple[bool, Any]:
    """Worker entry: run one task, never raise across the boundary.

    Returns ``(ok, payload)`` where payload is the task's result, as
    it returned it, or a formatted traceback string. A swept
    experiment runs unobserved (see :mod:`repro.sweep.tasks`), so its
    result carries no recorder across the process or cache boundary.
    Exceptions must not cross process boundaries raw — some are
    unpicklable, and one bad run must not take down the pool (per-run
    failure isolation).
    """
    try:
        fn = resolve_task(task)
        return True, fn(**params)
    except Exception:  # repro: noqa[ERR002] -- isolation: the traceback crosses the process boundary as data and is re-raised by the engine
        return False, traceback.format_exc()


class SweepEngine:
    """Runs :class:`SweepSpec`s against the cache and a worker pool.

    Args:
        jobs: worker processes; ``1`` (default) runs serially in-process.
        cache: a :class:`ResultCache`, or None to disable caching.
        retries: extra attempts per failing run before it counts as
            failed (bounded, never infinite). A spec with a failed run
            raises :class:`SweepExecutionError` once every run is done.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        retries: int = 1,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.cache = cache
        self.retries = retries
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
            combined.cache_misses += report.cache_misses
            combined.executed += report.executed
            combined.retries += report.retries
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
            key = run_key(run.task, dict(run.params))
            record = RunRecord(
                index=run.index, task=run.task, key=key,
                label=dict(run.label),
            )
            report.runs.append(record)
            hit = self.cache.get(key) if self.cache is not None else None
            if hit is not None:
                record.cached = True
                report.cache_hits += 1
                results[run.index] = hit[0]
            else:
                report.cache_misses += 1
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
            detail = "; ".join(
                f"run {r.index} ({r.task}) after {r.attempts} attempt(s)"
                for r in failed
            )
            first_trace = failed[0].error or ""
            raise SweepExecutionError(
                f"sweep {spec.name!r}: {len(failed)} run(s) failed: "
                f"{detail}\n{first_trace}"
            )
        return SweepOutcome(spec=spec, results=results, report=report)

    # -- serial / parallel backends ---------------------------------------

    def _record_of(self, report: ExecutionReport, index: int) -> RunRecord:
        return next(r for r in report.runs if r.index == index)

    def _finish_run(
        self,
        run: RunSpec,
        ok: bool,
        payload: Any,
        attempts: int,
        wall_s: float,
        results: list[Any],
        report: ExecutionReport,
    ) -> None:
        record = self._record_of(report, run.index)
        record.attempts = attempts
        record.wall_s = wall_s
        report.retries += attempts - 1
        if ok:
            report.executed += 1
            results[run.index] = payload
            if self.cache is not None:
                self.cache.put(record.key, run.task, payload)
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
            attempts = 0
            ok, payload = False, None
            while attempts <= self.retries and not ok:
                attempts += 1
                ok, payload = _execute_run(run.task, dict(run.params))
            if ok:
                # The same pickle round-trip a result crossing the
                # process boundary takes: without it, serial results
                # share in-process singletons (memoized on aggregate
                # pickling) while parallel ones arrive as independent
                # graphs, and the byte-identity contract breaks.
                payload = pickle.loads(pickle.dumps(payload))
            self._finish_run(
                run, ok, payload, attempts,
                time.perf_counter() - started, results, report,
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
        transport and cannot affect results. Failed runs are retried as
        single-run chunks for isolation; a dead worker (OOM, signal)
        breaks the whole chunk, so the pool is rebuilt and each of the
        chunk's runs retries individually.
        """
        workers = min(self.jobs, len(pending))
        pool = shared_pool(workers)
        registry = task_targets({run.task for run in pending})
        attempts: dict[int, int] = {}

        def submit(runs: list[RunSpec]):
            for run in runs:
                attempts[run.index] = attempts.get(run.index, 0) + 1
            items = [(run.task, dict(run.params)) for run in runs]
            return pool.submit_chunk(items, registry)

        live = {
            submit(pending[start:stop]): pending[start:stop]
            for start, stop in chunk_runs(len(pending), workers)
        }
        while live:
            done, _ = wait(live, return_when=FIRST_COMPLETED)
            for future in done:
                runs = live.pop(future)
                try:
                    triples = future.result()
                except Exception:  # repro: noqa[ERR002] -- a dead worker (OOM, signal) becomes a retryable per-run failure, re-raised after retries
                    pool.rebuild()
                    error = traceback.format_exc()
                    triples = [(False, error, 0.0)] * len(runs)
                for run, (ok, payload, wall_s) in zip(runs, triples):
                    if not ok and attempts[run.index] <= self.retries:
                        live[submit([run])] = [run]
                        continue
                    self._finish_run(
                        run, ok, payload, attempts[run.index], wall_s,
                        results, report,
                    )
