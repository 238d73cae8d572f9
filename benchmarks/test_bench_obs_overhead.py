"""Observability overhead on the schedule-reuse workload.

Three modes of the same run:

* ``trace``  — trace rows only; the pre-obs baseline this repo shipped
  before the recorder facade existed;
* ``off``    — the NullRecorder: hooks present but every call a no-op;
* ``full``   — trace rows + metrics + spans.

The acceptance bar is on the NullRecorder: the facade's no-op hooks
must cost < 5% over the baseline. Full-instrumentation cost is
recorded in the trajectory for trend tracking but not gated.
"""

import time

from repro.experiments.runner import run_experiment, video_only

from benchmarks.bench_utils import append_trajectory, print_table, save_results

REPS = 3
COLUMNS = [
    "t_null_s", "t_trace_s", "t_full_s",
    "null_overhead_pct", "full_overhead_pct",
]


def _best_time(obs_mode: str) -> float:
    best = float("inf")
    for _ in range(REPS):
        config = video_only(
            [56] * 4,
            burst_interval_s=0.1,
            duration_s=20.0,
            seed=1,
            reuse_schedules=True,
            obs_mode=obs_mode,
        )
        start = time.perf_counter()
        run_experiment(config)
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_obs_overhead():
    t_trace = _best_time("trace")
    t_null = _best_time("off")
    t_full = _best_time("full")
    null_overhead_pct = (t_null / t_trace - 1.0) * 100.0
    full_overhead_pct = (t_full / t_trace - 1.0) * 100.0
    rows = [
        {
            "experiment": "obs-overhead",
            "t_null_s": round(t_null, 4),
            "t_trace_s": round(t_trace, 4),
            "t_full_s": round(t_full, 4),
            "null_overhead_pct": round(null_overhead_pct, 2),
            "full_overhead_pct": round(full_overhead_pct, 2),
        }
    ]
    save_results("obs_overhead", rows)
    append_trajectory(
        "obs_overhead",
        rows,
        meta={
            "reps": REPS,
            "workload": "schedule-reuse: 4x video:56, 100 ms interval, 20 s",
        },
    )
    print_table("Observability overhead (schedule-reuse workload)", rows, COLUMNS)
    assert null_overhead_pct < 5.0, (
        f"NullRecorder hooks cost {null_overhead_pct:.2f}% over the "
        "trace-only baseline (budget: 5%)"
    )
