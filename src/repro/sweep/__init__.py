"""Sweep orchestration: cached, parallel, fault-tolerant experiment fan-out.

Every multi-run artifact in the repo (paper figures, tables, the PSM
baseline, the postmortem replay sweep) runs through this subsystem:

* :class:`~repro.sweep.spec.SweepSpec` — a declarative, ordered run
  list of ``ExperimentConfig`` runs, or of parameter dicts for any
  module-level task function;
* :class:`~repro.sweep.cache.ResultCache` — a content-addressed on-disk
  result store keyed by SHA-256(task ``module:qualname``, canonical
  params JSON, code fingerprint), so repeated figure/table/report
  invocations are warm-cache instant;
* :class:`~repro.sweep.engine.SweepEngine` — serial (``jobs=1``) or
  warm-pool execution (:mod:`repro.sweep.pool`: persistent preloaded
  workers, chunked dispatch) with per-run failure isolation; a failed
  run is not retried, and a rerun resumes from the cache. Aggregated
  output is ordered by spec index and byte-identical to the serial
  path;
* :class:`~repro.sweep.engine.ExecutionReport` — cache hits/misses,
  failures, per-run wall time, surfaced through the ``repro sweep``,
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
    "run_key",
    "shared_pool",
]
