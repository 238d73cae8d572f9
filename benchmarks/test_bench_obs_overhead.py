"""Observability overhead on the schedule-reuse workload.

Three modes of the same run:

* ``trace``  — trace rows only; the pre-obs baseline this repo shipped
  before the recorder facade existed;
* ``off``    — the NullRecorder: hooks present but every call a no-op;
* ``full``   — trace rows + metrics + spans.

The acceptance bar is on the NullRecorder: the facade's no-op hooks
must cost < 5% over the baseline. Full-instrumentation cost is
recorded in the trajectory for trend tracking but not gated.

Each mode's cost is the median CPU time (``time.process_time``) of
``RUNS`` runs, taken in alternation so that a slow host period lands on
every mode alike. The collector runs before each timed run, so no run
pays for freeing the previous mode's objects. The trajectory row's
``meta`` keeps each mode's quartile spread (interquartile range over
median, in points): a gate is only as sharp as that spread.
"""

import gc
import statistics
import time

from repro.experiments.runner import run_experiment, video_only

from benchmarks.bench_utils import append_trajectory, print_table, save_results

RUNS = 7
MODES = ("trace", "off", "full")
DURATION_S = 60.0
COLUMNS = [
    "t_null_s", "t_trace_s", "t_full_s",
    "null_overhead_pct", "full_overhead_pct",
]


def _cpu_time(obs_mode: str) -> float:
    config = video_only(
        [56] * 4,
        burst_interval_s=0.1,
        duration_s=DURATION_S,
        seed=1,
        reuse_schedules=True,
        obs_mode=obs_mode,
    )
    gc.collect()
    start = time.process_time()
    run_experiment(config)
    return time.process_time() - start


def _spread_pct(samples: list[float]) -> float:
    """Interquartile range as a percentage of the median."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / median * 100.0


def test_bench_obs_overhead():
    samples: dict[str, list[float]] = {mode: [] for mode in MODES}
    for _ in range(RUNS):
        for mode in MODES:
            samples[mode].append(_cpu_time(mode))
    t_trace, t_null, t_full = (
        statistics.median(samples[mode]) for mode in MODES
    )
    spreads = {mode: round(_spread_pct(samples[mode]), 2) for mode in MODES}
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
            "runs": RUNS,
            "timer": "process_time, median of alternating runs",
            "iqr_pct": spreads,
            "workload": (
                f"schedule-reuse: 4x video:56, 100 ms interval, "
                f"{DURATION_S:g} s"
            ),
        },
    )
    print_table("Observability overhead (schedule-reuse workload)", rows, COLUMNS)
    print("quartile spread (IQR / median, points): " + ", ".join(
        f"{mode} {spreads[mode]:.2f}" for mode in MODES
    ))
    assert null_overhead_pct < 5.0, (
        f"NullRecorder hooks cost {null_overhead_pct:.2f}% over the "
        "trace-only baseline (budget: 5%)"
    )
