"""Sweep orchestration: cold vs warm cache, serial vs parallel fan-out.

Gates (quick figure-4 grid, 15 runs):

* a warm-cache rerun executes zero simulations and is dramatically
  faster than the cold run;
* parallel (``jobs=2``) wall time is no worse than serial — with a
  small multi-process overhead allowance when the host has a single
  CPU, where real speedup is impossible by construction;
* parallel results are byte-identical to serial (the determinism
  contract, checked on the pickled aggregate).

Persists a ``sweep`` rows file (the EXPERIMENTS.md cold-vs-warm table)
and the ``BENCH_sweep.json`` trajectory. Every row carries the code
fingerprint and the host CPU count (:data:`ROW_SCHEMA`) so trajectory
entries recorded on different machines — or against different code —
are interpretable side by side.
"""

import json
import os
import pickle
import time

from repro.experiments.figures import figure4
from repro.sweep import ResultCache, SweepEngine
from repro.sweep.cache import code_fingerprint

from benchmarks.bench_utils import (
    RESULTS_DIR,
    append_trajectory,
    print_table,
    save_results,
)

COLUMNS = [
    "mode", "jobs", "wall_s", "executed", "cache_hits", "speedup_vs_cold",
    "cpus", "fingerprint",
]

#: Keys every persisted row must carry (the trajectory schema).
#: ``fingerprint`` identifies the code under test (12-hex prefix of the
#: sweep cache's :func:`code_fingerprint`); ``cpus`` the machine it ran
#: on. Rows predating the schema were backfilled with ``fingerprint:
#: None`` and the entry-level ``meta.cpus``.
ROW_SCHEMA = frozenset(COLUMNS)


def _timed_figure4(engine):
    started = time.perf_counter()
    rows = figure4(seed=1, quick=True, engine=engine)
    return rows, time.perf_counter() - started


def test_bench_sweep(tmp_path):
    cache_dir = tmp_path / "cache"

    cold_engine = SweepEngine(jobs=1, cache=ResultCache(cache_dir))
    cold_rows, cold_s = _timed_figure4(cold_engine)
    cold_report = cold_engine.last_report

    warm_engine = SweepEngine(jobs=1, cache=ResultCache(cache_dir))
    warm_rows, warm_s = _timed_figure4(warm_engine)
    warm_report = warm_engine.last_report

    parallel_engine = SweepEngine(jobs=2)
    parallel_rows, parallel_s = _timed_figure4(parallel_engine)
    parallel_report = parallel_engine.last_report

    serial_engine = SweepEngine(jobs=1)
    serial_rows, serial_s = _timed_figure4(serial_engine)

    cpus = os.cpu_count() or 1
    fingerprint = code_fingerprint()[:12]
    rows = [
        {
            "mode": "cold-serial", "jobs": 1, "wall_s": cold_s,
            "executed": cold_report.executed,
            "cache_hits": cold_report.cache_hits,
            "speedup_vs_cold": 1.0,
            "cpus": cpus, "fingerprint": fingerprint,
        },
        {
            "mode": "warm", "jobs": 1, "wall_s": warm_s,
            "executed": warm_report.executed,
            "cache_hits": warm_report.cache_hits,
            "speedup_vs_cold": cold_s / warm_s,
            "cpus": cpus, "fingerprint": fingerprint,
        },
        {
            "mode": "parallel-uncached", "jobs": 2, "wall_s": parallel_s,
            "executed": parallel_report.executed,
            "cache_hits": parallel_report.cache_hits,
            "speedup_vs_cold": cold_s / parallel_s,
            "cpus": cpus, "fingerprint": fingerprint,
        },
    ]
    save_results("sweep", rows)
    append_trajectory("sweep", rows, meta={"cpus": cpus, "serial_s": serial_s})
    print_table("Sweep orchestration — figure-4 grid (quick)", rows, COLUMNS)

    # Schema gate: every trajectory entry — including backfilled
    # pre-schema ones — carries the full per-row key set.
    history = json.loads((RESULTS_DIR / "BENCH_sweep.json").read_text())
    for entry in history:
        for row in entry["rows"]:
            assert ROW_SCHEMA <= set(row), (
                f"trajectory row missing keys: {sorted(ROW_SCHEMA - set(row))}"
            )

    # Cold run simulates everything; warm run simulates nothing.
    assert cold_report.executed == 15 and cold_report.cache_hits == 0
    assert warm_report.executed == 0 and warm_report.cache_hits == 15
    assert warm_s < cold_s / 4.0

    # Determinism contract: the parallel aggregate is byte-identical.
    assert pickle.dumps(parallel_rows) == pickle.dumps(serial_rows)
    assert warm_rows == cold_rows == serial_rows

    # Fan-out gate: parallel wall time must not regress past serial.
    # With >=2 CPUs the pool must at least break even; on one CPU a
    # genuine speedup is impossible, so only bound the process-pool
    # overhead.
    allowance = 1.05 if cpus >= 2 else 1.35
    assert parallel_s <= serial_s * allowance, (
        f"jobs=2 took {parallel_s:.2f}s vs serial {serial_s:.2f}s "
        f"(allowance ×{allowance}, {cpus} CPU(s))"
    )
