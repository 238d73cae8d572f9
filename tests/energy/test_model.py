"""Unit tests for interval overlap and energy integration."""

import numpy as np
import pytest

from repro.energy.model import client_breakdowns, merge_intervals
from repro.errors import TraceError
from repro.wnic.power import WAVELAN_2_4GHZ


def _aware(awake, rx_frames, tx_frames, duration_s, wake_count):
    """The power-aware card's breakdown."""
    return client_breakdowns(
        awake, rx_frames, tx_frames, duration_s, wake_count, WAVELAN_2_4GHZ
    )[0]


def _naive(rx_frames, tx_frames, duration_s):
    """The naive card's breakdown: awake for the whole run."""
    return client_breakdowns(
        [], rx_frames, tx_frames, duration_s, 0, WAVELAN_2_4GHZ
    )[1]


def _overlap(base, queries):
    """The airtime of ``queries`` a card awake over ``base`` hears."""
    return _aware(base, queries, [], 110.0, 0).receive_s


class TestCumulativeTime:
    """The awake time before ``t``: what a card hears of ``[0, t)``."""

    def test_empty_base(self):
        assert _overlap([], [(0.0, 5.0)]) == 0.0

    def test_single_interval(self):
        base = [(1.0, 3.0)]
        assert _overlap(base, [(0.0, 0.5)]) == 0.0
        assert _overlap(base, [(0.0, 2.0)]) == pytest.approx(1.0)
        assert _overlap(base, [(0.0, 10.0)]) == pytest.approx(2.0)

    def test_multiple_intervals(self):
        base = [(0.0, 1.0), (2.0, 4.0)]
        assert _overlap(base, [(0.0, 3.0)]) == pytest.approx(2.0)
        assert _overlap(base, [(0.0, 5.0)]) == pytest.approx(3.0)

    def test_unsorted_base_rejected(self):
        with pytest.raises(TraceError):
            _overlap([(2.0, 3.0), (0.0, 1.0)], [])

    def test_inverted_interval_rejected(self):
        with pytest.raises(TraceError):
            _overlap([(3.0, 2.0)], [])


class TestOverlap:
    def test_no_overlap(self):
        assert _overlap([(0.0, 1.0)], [(2.0, 3.0)]) == 0.0

    def test_partial_overlap(self):
        assert _overlap([(0.0, 2.0)], [(1.0, 3.0)]) == pytest.approx(1.0)

    def test_query_inside_base(self):
        assert _overlap([(0.0, 10.0)], [(2.0, 3.0)]) == pytest.approx(1.0)

    def test_overlapping_queries_not_double_counted(self):
        total = _overlap([(0.0, 10.0)], [(1.0, 3.0), (2.0, 4.0)])
        assert total == pytest.approx(3.0)

    def test_empty_queries(self):
        assert _overlap([(0.0, 1.0)], []) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        starts = np.sort(rng.uniform(0, 100, 20))
        base = [(s, s + 1.0) for s in starts if True]
        # ensure disjoint
        base = [
            (s, min(e, base[i + 1][0]) if i + 1 < len(base) else e)
            for i, (s, e) in enumerate(base)
        ]
        queries = [(float(x), float(x + rng.uniform(0, 5))) for x in rng.uniform(0, 100, 30)]

        def brute(base, queries):
            resolution = 0.001
            timeline = np.zeros(int(110 / resolution), dtype=bool)
            qline = np.zeros_like(timeline)
            for s, e in base:
                timeline[int(s / resolution): int(e / resolution)] = True
            for s, e in queries:
                qline[int(s / resolution): int(e / resolution)] = True
            return (timeline & qline).sum() * resolution

        assert _overlap(base, queries) == pytest.approx(
            brute(base, queries), abs=0.1
        )


class TestMergeIntervals:
    def test_merges_overlaps(self):
        merged = merge_intervals(np.array([[0.0, 2.0], [1.0, 3.0], [5.0, 6.0]]))
        assert merged.tolist() == [[0.0, 3.0], [5.0, 6.0]]

    def test_sorts_input(self):
        merged = merge_intervals(np.array([[5.0, 6.0], [0.0, 1.0]]))
        assert merged.tolist() == [[0.0, 1.0], [5.0, 6.0]]

    def test_empty(self):
        assert merge_intervals(np.empty((0, 2))).size == 0


class TestIntegrateIntervals:
    """The power-aware breakdown, ``client_breakdowns(...)[0]``."""

    def test_always_asleep(self):
        breakdown = _aware([], [], [], 100.0, 0)
        assert breakdown.sleep_s == pytest.approx(100.0)
        assert breakdown.energy_j == pytest.approx(100.0 * 0.177)

    def test_always_awake_no_traffic(self):
        breakdown = _aware([(0.0, 100.0)], [], [], 100.0, 0)
        assert breakdown.idle_s == pytest.approx(100.0)
        assert breakdown.energy_j == pytest.approx(100.0 * 1.319)

    def test_rx_only_counts_awake_overlap(self):
        breakdown = _aware(
            awake=[(0.0, 10.0)],
            rx_frames=[(5.0, 6.0), (50.0, 51.0)],  # second is while asleep
            tx_frames=[],
            duration_s=100.0,
            wake_count=1,
        )
        assert breakdown.receive_s == pytest.approx(1.0)
        assert breakdown.idle_s == pytest.approx(9.0)
        assert breakdown.sleep_s == pytest.approx(90.0)

    def test_wake_penalty_added(self):
        no_wakes = _aware([], [], [], 10.0, 0)
        with_wakes = _aware([], [], [], 10.0, 5)
        assert with_wakes.energy_j - no_wakes.energy_j == pytest.approx(
            5 * WAVELAN_2_4GHZ.wake_penalty_j
        )

    def test_residency_sums_to_duration(self):
        aware, naive = client_breakdowns(
            awake=[(10.0, 30.0), (50.0, 55.0)],
            rx_frames=[(12.0, 13.0)],
            tx_frames=[(14.0, 14.5)],
            duration_s=100.0,
            wake_count=2,
            power=WAVELAN_2_4GHZ,
        )
        assert aware.duration_s == pytest.approx(100.0)
        assert naive.duration_s == pytest.approx(100.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(TraceError):
            _aware([], [], [], -1.0, 0)


class TestNaiveBreakdown:
    """The naive breakdown, ``client_breakdowns(...)[1]``."""

    def test_naive_idles_when_not_receiving(self):
        breakdown = _naive([(0.0, 10.0)], [], 100.0)
        assert breakdown.receive_s == pytest.approx(10.0)
        assert breakdown.idle_s == pytest.approx(90.0)
        assert breakdown.sleep_s == 0.0

    def test_naive_energy_exceeds_sleeping_client(self):
        rx = [(float(i), float(i) + 0.01) for i in range(0, 100, 10)]
        aware, naive = client_breakdowns(
            awake=[(float(i), float(i) + 0.02) for i in range(0, 100, 10)],
            rx_frames=rx, tx_frames=[], duration_s=100.0, wake_count=10,
            power=WAVELAN_2_4GHZ,
        )
        assert aware.energy_j < naive.energy_j
        saved = 1 - aware.energy_j / naive.energy_j
        assert saved > 0.8  # sparse traffic -> large savings
