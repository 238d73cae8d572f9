"""Sweep orchestration: cached, parallel, fault-tolerant experiment fan-out.

Every multi-run artifact in the repo (paper figures, tables, the PSM
baseline, the postmortem replay sweep) runs through this subsystem:

* :class:`~repro.sweep.spec.SweepSpec` — a declarative, ordered run
  list (parameter grids × seed replications over ``ExperimentConfig``,
  or arbitrary registered tasks);
* :class:`~repro.sweep.cache.ResultCache` — a content-addressed on-disk
  result store keyed by SHA-256(task, canonical params JSON, code
  fingerprint), so repeated figure/table/report invocations are
  warm-cache instant;
* :class:`~repro.sweep.engine.SweepEngine` — serial (``jobs=1``) or
  warm-pool execution (:mod:`repro.sweep.pool`: persistent preloaded
  workers, chunked dispatch) with per-run failure isolation and
  bounded retries; aggregated output is ordered by spec index and
  byte-identical to the serial path;
* :class:`~repro.sweep.engine.ExecutionReport` — cache hits/misses,
  retries, per-run wall time, surfaced through the ``repro sweep``,
  ``figure``, ``table`` and ``report`` CLI commands.

See DESIGN.md §10 for the cache-key derivation and the determinism
argument for process fan-out.
"""

from repro.sweep.cache import ResultCache, code_fingerprint, run_key
from repro.sweep.canonical import canonical_json, canonical_value
from repro.sweep.engine import (
    ExecutionReport,
    RunRecord,
    SweepEngine,
    SweepOutcome,
)
from repro.sweep.pool import WarmPool, shared_pool
from repro.sweep.spec import RunSpec, SweepSpec
from repro.sweep.tasks import register_task, resolve_task, task_targets

__all__ = [
    "ExecutionReport",
    "ResultCache",
    "RunRecord",
    "RunSpec",
    "SweepEngine",
    "SweepOutcome",
    "SweepSpec",
    "WarmPool",
    "canonical_json",
    "canonical_value",
    "code_fingerprint",
    "register_task",
    "resolve_task",
    "run_key",
    "shared_pool",
    "task_targets",
]
