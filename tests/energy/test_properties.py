"""Property-based tests for energy accounting invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.model import client_breakdowns
from repro.wnic.power import WAVELAN_2_4GHZ


@st.composite
def disjoint_intervals(draw, max_t=100.0, max_n=20):
    """Sorted, disjoint [start, end) intervals inside [0, max_t]."""
    n = draw(st.integers(0, max_n))
    points = sorted(
        draw(
            st.lists(
                st.floats(0.0, max_t, allow_nan=False),
                min_size=2 * n, max_size=2 * n, unique=True,
            )
        )
    )
    return [(points[2 * i], points[2 * i + 1]) for i in range(n)]


@st.composite
def frame_intervals(draw, max_t=100.0, max_n=30):
    """Arbitrary (possibly overlapping) frame airtime intervals."""
    n = draw(st.integers(0, max_n))
    frames = []
    for _ in range(n):
        start = draw(st.floats(0.0, max_t - 0.01, allow_nan=False))
        length = draw(st.floats(0.0001, 0.01, allow_nan=False))
        frames.append((start, min(max_t, start + length)))
    return frames


class TestEnergyInvariants:
    @given(
        awake=disjoint_intervals(),
        rx=frame_intervals(),
        tx=frame_intervals(),
        wakes=st.integers(0, 50),
    )
    @settings(max_examples=100, deadline=None)
    def test_residency_sums_to_duration(self, awake, rx, tx, wakes):
        for breakdown in client_breakdowns(
            awake=awake, rx_frames=rx, tx_frames=tx, duration_s=100.0,
            wake_count=wakes, power=WAVELAN_2_4GHZ,
        ):
            assert breakdown.duration_s <= 100.0 + 1e-6
            for value in (
                breakdown.sleep_s, breakdown.idle_s, breakdown.receive_s,
                breakdown.transmit_s,
            ):
                assert value >= -1e-9

    def test_simultaneous_rx_tx_charged_as_transmit_only(self):
        """Half-duplex: coinciding rx/tx airtime must not double count
        (regression for a hypothesis-found residency overflow)."""
        for breakdown in client_breakdowns(
            awake=[(0.0, 1.0)], rx_frames=[(0.0, 1.0)],
            tx_frames=[(0.0, 1.0)], duration_s=100.0,
            wake_count=0, power=WAVELAN_2_4GHZ,
        ):
            assert breakdown.receive_s == 0.0
            assert breakdown.transmit_s == 1.0
            assert abs(breakdown.duration_s - 100.0) < 1e-9

    @given(awake=disjoint_intervals(), rx=frame_intervals())
    @settings(max_examples=100, deadline=None)
    def test_power_aware_never_beats_all_sleep_nor_exceeds_naive(
        self, awake, rx
    ):
        aware, naive = client_breakdowns(
            awake=awake, rx_frames=rx, tx_frames=[], duration_s=100.0,
            wake_count=0, power=WAVELAN_2_4GHZ,
        )
        floor = 100.0 * WAVELAN_2_4GHZ.sleep_w
        assert aware.energy_j >= floor - 1e-6
        assert aware.energy_j <= naive.energy_j + 1e-6

    @given(awake=disjoint_intervals(), rx=frame_intervals())
    @settings(max_examples=60, deadline=None)
    def test_more_awake_time_never_costs_less(self, awake, rx):
        """Adding awake time is monotone in energy (idle > sleep)."""
        base, _ = client_breakdowns(
            awake=awake, rx_frames=rx, tx_frames=[], duration_s=200.0,
            wake_count=0, power=WAVELAN_2_4GHZ,
        )
        extended = list(awake) + [(150.0, 160.0)]
        extended = sorted(extended)
        # keep only if still disjoint (awake drawn inside [0, 100])
        more, _ = client_breakdowns(
            awake=extended, rx_frames=rx, tx_frames=[], duration_s=200.0,
            wake_count=0, power=WAVELAN_2_4GHZ,
        )
        assert more.energy_j >= base.energy_j - 1e-9

    @given(rx=frame_intervals())
    @settings(max_examples=60, deadline=None)
    def test_naive_receive_time_bounded_by_merged_airtime(self, rx):
        _, breakdown = client_breakdowns([], rx, [], 100.0, 0, WAVELAN_2_4GHZ)
        total_span = sum(e - s for s, e in rx)
        assert breakdown.receive_s <= total_span + 1e-9
