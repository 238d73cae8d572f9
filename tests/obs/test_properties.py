"""Property-based tests for the observability invariants.

Two levels:

* registry-level (tier 1): histogram accounting and snapshot
  canonicalisation hold for arbitrary observation sequences;
* simulation-level (``slow``): span nesting and WNIC residency
  invariants hold across seeds on a real (small) experiment.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.runner import ClientSpec, ExperimentConfig, run_experiment
from repro.obs import MetricsRegistry
from repro.obs.metrics import DEPTH_BUCKETS, RATIO_BUCKETS

observations = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    max_size=200,
)


class TestRegistryProperties:
    @given(values=observations)
    @settings(max_examples=100, deadline=None)
    def test_bucket_counts_sum_to_observation_count(self, values):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=RATIO_BUCKETS)
        for value in values:
            histogram.observe(value)
        assert sum(histogram.counts) == histogram.count == len(values)
        assert histogram.total == pytest.approx(sum(values))

    @given(values=observations)
    @settings(max_examples=50, deadline=None)
    def test_snapshot_is_label_order_independent(self, values):
        left, right = MetricsRegistry(), MetricsRegistry()
        for value in values:
            left.histogram(
                "h", buckets=DEPTH_BUCKETS, ap="ap", client="c"
            ).observe(value)
            right.histogram(
                "h", buckets=DEPTH_BUCKETS, client="c", ap="ap"
            ).observe(value)
        assert left.snapshot() == right.snapshot()
        assert left.to_json() == right.to_json()

    @given(
        pairs=st.lists(
            st.tuples(st.sampled_from("abc"), st.integers(0, 5)),
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_counter_totals_are_interleaving_independent(self, pairs):
        in_order, sorted_order = MetricsRegistry(), MetricsRegistry()
        for name, n in pairs:
            in_order.counter(name).inc(n)
        for name, n in sorted(pairs):
            sorted_order.counter(name).inc(n)
        assert in_order.snapshot() == sorted_order.snapshot()

    def test_histogram_redeclared_with_other_buckets_is_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=RATIO_BUCKETS)
        with pytest.raises(ConfigurationError):
            registry.histogram("h", buckets=DEPTH_BUCKETS)


@lru_cache(maxsize=None)
def _run(seed: int):
    config = ExperimentConfig(
        clients=[ClientSpec("video", video_kbps=56), ClientSpec("web")],
        burst_interval_s=0.1,
        duration_s=1.5,
        warmup_s=0.2,
        start_stagger_s=0.3,
        seed=seed,
    )
    return run_experiment(config)


@pytest.mark.slow
class TestSimulationProperties:
    @given(seed=st.integers(min_value=0, max_value=7))
    @settings(max_examples=5, deadline=None)
    def test_slot_spans_nest_inside_interval_spans(self, seed):
        spans = _run(seed).obs.spans
        intervals = [s for s in spans if s.name == "interval"]
        slots = [s for s in spans if s.name == "slot"]
        assert slots, "dynamic run produced no burst-slot spans"
        for slot in slots:
            assert any(
                interval.start <= slot.start
                and slot.end <= interval.end + 1e-9
                for interval in intervals
            ), f"slot span {slot} crosses every interval boundary"

    @given(seed=st.integers(min_value=0, max_value=7))
    @settings(max_examples=5, deadline=None)
    def test_residency_gauges_sum_to_sim_duration(self, seed):
        snapshot = _run(seed).obs.metrics.snapshot()
        gauges = {
            (g["name"], tuple(sorted(g["labels"].items()))): g["value"]
            for g in snapshot["gauges"]
        }
        duration = gauges[("sim.duration_s", ())]
        clients = {
            dict(labels)["client"]
            for (name, labels) in gauges
            if name == "wnic.residency_s"
        }
        assert clients, "no residency gauges recorded"
        for client in sorted(clients):
            awake = gauges[
                ("wnic.residency_s", (("client", client), ("state", "awake")))
            ]
            sleep = gauges[
                ("wnic.residency_s", (("client", client), ("state", "sleep")))
            ]
            assert awake + sleep == pytest.approx(duration, abs=1e-9)
            assert 0.0 <= awake <= duration + 1e-9

    @given(seed=st.integers(min_value=0, max_value=7))
    @settings(max_examples=5, deadline=None)
    def test_every_histogram_in_a_run_balances(self, seed):
        snapshot = _run(seed).obs.metrics.snapshot()
        assert snapshot["histograms"], "run recorded no histograms"
        for histogram in snapshot["histograms"]:
            assert sum(histogram["counts"]) == histogram["count"]
