"""Load-test harness: concurrency acceptance + report plumbing.

The headline acceptance test drives >= 50 concurrent loopback clients
through the proxy and asserts, *from the obs metrics snapshot*, that no
per-client queue ever exceeded the high watermark by more than one read
chunk.
"""

import pytest

from repro.faults.plan import ChurnEvent, FaultPlan
from repro.obs import SimRecorder
from repro.runtime.loadtest import (
    LoadTestConfig,
    _broadcast_jitter,
    percentile,
    run_loadtest,
)
from repro.runtime.proxy import CHUNK, AsyncProxyConfig

from tests.runtime.conftest import run_strict


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([3.0], 0.99) == 3.0

    def test_nearest_rank(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == 3.0  # rank round(0.5 * 3) = 2


class TestBroadcastJitter:
    def test_perfectly_periodic_is_zero(self):
        times = [0.0, 0.1, 0.2, 0.3]
        assert _broadcast_jitter(times, 0.1) == pytest.approx([0.0] * 3)

    def test_gap_deviation(self):
        assert _broadcast_jitter([0.0, 0.25], 0.1) == pytest.approx([0.15])

    def test_fewer_than_two_points(self):
        assert _broadcast_jitter([], 0.1) == []
        assert _broadcast_jitter([1.0], 0.1) == []


class TestLoadTest:
    @pytest.mark.timeout(120)
    def test_fifty_concurrent_clients_within_watermark(self):
        recorder = SimRecorder()
        config = LoadTestConfig(
            clients=50,
            requests_per_client=1,
            bytes_per_request=16_000,
            timeout_s=60.0,
        )
        report = run_strict(
            run_loadtest(config, obs=recorder), timeout_s=90.0
        )
        assert report.clients == 50
        assert report.requests_ok == 50
        assert report.requests_failed == 0
        assert report.bytes_received == 50 * 16_000
        assert not report.watermark_exceeded
        assert report.scheduler_restarts == 0
        # Watermark honored, asserted from the obs metrics snapshot:
        # every per-client queue-peak gauge stays within high + CHUNK.
        peaks = [
            g["value"] for g in recorder.metrics.snapshot()["gauges"]
            if g["name"] == "runtime.queue_peak_bytes"
        ]
        assert peaks, "expected runtime.queue_peak_bytes gauges"
        assert max(peaks) <= report.queue_high_bytes + CHUNK
        assert report.peak_queue_bytes <= report.queue_high_bytes + CHUNK

    @pytest.mark.timeout(120)
    def test_report_under_churn_counts_eviction(self, fast_reaper):
        plan = FaultPlan(churn=(ChurnEvent(0, 0.2, None),))
        config = LoadTestConfig(
            clients=4,
            requests_per_client=30,
            bytes_per_request=8_000,
            timeout_s=30.0,
            plan=plan,
            proxy=AsyncProxyConfig(
                burst_interval_s=0.05,
                silence_timeout_s=0.3,
                evict_timeout_s=0.8,
            ),
        )
        report = run_strict(run_loadtest(config), timeout_s=90.0)
        # Survivors finished their full request quota.
        assert report.requests_ok >= 3 * 30
        assert report.scheduler_restarts == 0
        # The vanished client aged out of the schedule.
        assert report.slots_reclaimed >= 1
        assert report.evictions >= 1

    def test_summary_rows_shape(self):
        config = LoadTestConfig(
            clients=2, requests_per_client=1, bytes_per_request=4_000,
        )
        report = run_strict(run_loadtest(config), timeout_s=60.0)
        [row] = report.summary_rows()
        assert row["clients"] == 2
        assert row["ok"] == 2
        assert set(row) == {
            "clients", "requests", "ok", "failed", "req_per_s",
            "p50_ms", "p99_ms", "jitter_p99_ms", "peak_queue_kib",
            "refused", "reclaimed", "evicted", "restarts",
        }
