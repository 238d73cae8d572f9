"""The energy arithmetic is unchanged, bit for bit.

The oracle below is a verbatim copy of ``repro.energy.model`` as it was
before the analyzer learned to merge each client's airtime once per
direction (``client_breakdowns``): ``integrate_intervals``,
``naive_breakdown`` and their helpers, each of which merged and
converted its own inputs. The kernel goldens pin each client's joules
exactly, so the shared code must give every ``EnergyBreakdown`` field
the same float, compared with ``==``, on any input: touching and
zero-length intervals, overlapping transmit frames, transmit time
outside the awake time, empty lists and an empty awake set. The
helpers themselves are gone; ``client_breakdowns`` is the one pricing.
"""

from typing import Callable, Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import model
from repro.energy.model import EnergyBreakdown, Interval
from repro.errors import TraceError
from repro.wnic.power import WAVELAN_2_4GHZ, PowerModel

# -- the oracle: the arithmetic as it was -----------------------------------


def _validate_intervals(intervals: Sequence[Interval], label: str) -> np.ndarray:
    array = np.asarray(intervals, dtype=float).reshape(-1, 2)
    if array.size and ((array[:, 1] < array[:, 0]).any()):
        raise TraceError(f"{label} contains an interval with end < start")
    if array.size > 1 and (array[1:, 0] < array[:-1, 1] - 1e-12).any():
        raise TraceError(f"{label} intervals must be sorted and disjoint")
    return array


def cumulative_time_fn(
    intervals: Sequence[Interval],
) -> Callable[[object], np.ndarray]:
    """Return F where F(t) = total time covered by ``intervals`` before t.

    ``intervals`` must be sorted and disjoint (awake intervals from a
    WNIC log always are).
    """
    array = _validate_intervals(intervals, "base")
    if array.size == 0:
        return lambda t: np.zeros_like(np.asarray(t, dtype=float))
    edges = array.reshape(-1)  # start0, end0, start1, end1, ...
    durations = array[:, 1] - array[:, 0]
    cumulative = np.zeros(edges.size)
    cumulative[1::2] = np.cumsum(durations)
    cumulative[2::2] = np.cumsum(durations)[:-1]

    def fn(t):
        return np.interp(np.asarray(t, dtype=float), edges, cumulative)

    return fn


def overlap_total(
    base: Sequence[Interval], queries: Sequence[Interval]
) -> float:
    """Total overlap between ``base`` (sorted, disjoint) and ``queries``.

    ``queries`` may overlap each other; overlapping query intervals are
    merged first so shared airtime is not double counted.
    """
    query_array = np.asarray(queries, dtype=float).reshape(-1, 2)
    if query_array.size == 0:
        return 0.0
    merged = merge_intervals(query_array)
    fn = cumulative_time_fn(base)
    return float(np.sum(fn(merged[:, 1]) - fn(merged[:, 0])))


def intersect_intervals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted, disjoint interval sets."""
    # The sweep runs through thousands of per-client intervals; plain
    # Python floats make the two-pointer walk several times faster than
    # per-element numpy scalar indexing (identical IEEE arithmetic).
    a_list = np.asarray(a, dtype=float).reshape(-1, 2).tolist()
    b_list = np.asarray(b, dtype=float).reshape(-1, 2).tolist()
    out = []
    i = j = 0
    n_a = len(a_list)
    n_b = len(b_list)
    while i < n_a and j < n_b:
        a_start, a_end = a_list[i]
        b_start, b_end = b_list[j]
        start = a_start if a_start > b_start else b_start
        end = a_end if a_end < b_end else b_end
        if start < end:
            out.append((start, end))
        if a_end <= b_end:
            i += 1
        else:
            j += 1
    return np.asarray(out, dtype=float).reshape(-1, 2)


def merge_intervals(intervals: np.ndarray) -> np.ndarray:
    """Merge possibly-overlapping intervals into a sorted disjoint set."""
    array = np.asarray(intervals, dtype=float).reshape(-1, 2)
    if array.size == 0:
        return array
    order = np.argsort(array[:, 0], kind="stable")
    rows = array[order].tolist()
    merged = [rows[0]]
    last = merged[0]
    for row in rows[1:]:
        start = row[0]
        if start <= last[1]:
            end = row[1]
            if end > last[1]:
                last[1] = end
        else:
            merged.append(row)
            last = row
    return np.asarray(merged)


def integrate_intervals(
    awake: Sequence[Interval],
    rx_frames: Sequence[Interval],
    tx_frames: Sequence[Interval],
    duration_s: float,
    wake_count: int,
    power: PowerModel,
) -> EnergyBreakdown:
    """Account one client's energy from its awake/rx/tx intervals.

    Receive residency only counts where it overlaps awake time (a
    sleeping card cannot hear the medium). Transmit residency counts in
    full: the card wakes itself to send (e.g. TCP ACKs or receiver
    reports fired while the daemon sleeps), so transmit time outside
    the daemon's awake windows is charged at transmit power and
    subtracted from sleep time.
    """
    if duration_s < 0:
        raise TraceError(f"negative duration: {duration_s}")
    awake_array = _validate_intervals(awake, "awake")
    awake_total = float(np.sum(awake_array[:, 1] - awake_array[:, 0])) if awake_array.size else 0.0
    receive_s = overlap_total(awake, rx_frames)
    tx_in_awake = overlap_total(awake, tx_frames)
    tx_array = np.asarray(tx_frames, dtype=float).reshape(-1, 2)
    transmit_s = (
        float(np.sum(merge_intervals(tx_array)[:, 1] - merge_intervals(tx_array)[:, 0]))
        if tx_array.size
        else 0.0
    )
    # Half-duplex: where rx and tx airtime coincide (adversarial or
    # replayed traces), transmit wins and receive is not charged —
    # otherwise the residencies sum past the run duration.
    rx_array = np.asarray(rx_frames, dtype=float).reshape(-1, 2)
    if rx_array.size and tx_array.size and awake_array.size:
        rx_in_awake = intersect_intervals(
            awake_array, merge_intervals(rx_array)
        )
        if rx_in_awake.size:
            receive_s = max(
                0.0, receive_s - overlap_total(rx_in_awake, tx_frames)
            )
    idle_s = max(0.0, awake_total - receive_s - tx_in_awake)
    sleep_s = max(0.0, duration_s - awake_total - (transmit_s - tx_in_awake))
    energy = power.energy(sleep_s, idle_s, receive_s, transmit_s, wake_count)
    return EnergyBreakdown(
        sleep_s=sleep_s,
        idle_s=idle_s,
        receive_s=receive_s,
        transmit_s=transmit_s,
        wake_count=wake_count,
        energy_j=energy,
    )


def naive_breakdown(
    rx_frames: Sequence[Interval],
    tx_frames: Sequence[Interval],
    duration_s: float,
    power: PowerModel,
) -> EnergyBreakdown:
    """The naive client: awake for the whole trace, hears every frame."""
    whole = [(0.0, duration_s)]
    return integrate_intervals(
        awake=whole,
        rx_frames=rx_frames,
        tx_frames=tx_frames,
        duration_s=duration_s,
        wake_count=0,
        power=power,
    )


# -- the comparison ------------------------------------------------------------

#: Times on a quarter-second grid make touching and shared endpoints
#: common; arbitrary floats exercise the rounding.
times = st.one_of(
    st.integers(0, 48).map(lambda k: k / 4),
    st.floats(0.0, 12.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def awake_sets(draw) -> list[Interval]:
    """Sorted intervals that touch but never overlap; zero-length
    intervals and the empty set included."""
    points = sorted(draw(st.lists(times, max_size=12)))
    if len(points) % 2:
        points.pop()
    return [(points[i], points[i + 1]) for i in range(0, len(points), 2)]


@st.composite
def frame_sets(draw) -> list[Interval]:
    """Unsorted frame airtime that may overlap, touch or be empty."""
    frames = []
    for start, length in draw(
        st.lists(st.tuples(times, st.sampled_from([0.0, 0.25, 0.5]) | times),
                 max_size=12)
    ):
        frames.append((start, start + length))
    return frames


def _fields(breakdown: EnergyBreakdown) -> tuple:
    return (
        breakdown.sleep_s,
        breakdown.idle_s,
        breakdown.receive_s,
        breakdown.transmit_s,
        breakdown.wake_count,
        breakdown.energy_j,
    )


@settings(max_examples=300, deadline=None)
@given(
    awake=awake_sets(),
    rx=frame_sets(),
    tx=frame_sets(),
    duration_s=times,
    wake_count=st.integers(0, 5),
)
def test_breakdowns_equal_the_oracle(awake, rx, tx, duration_s, wake_count):
    aware = integrate_intervals(
        awake, rx, tx, duration_s, wake_count, WAVELAN_2_4GHZ
    )
    naive = naive_breakdown(rx, tx, duration_s, WAVELAN_2_4GHZ)
    both = model.client_breakdowns(
        awake, rx, tx, duration_s, wake_count, WAVELAN_2_4GHZ
    )
    assert [_fields(b) for b in both] == [_fields(aware), _fields(naive)]


@settings(max_examples=200, deadline=None)
@given(base=awake_sets(), queries=frame_sets())
def test_overlap_total_equals_the_oracle(base, queries):
    """Receive time with no transmit airtime is the oracle's overlap of
    the awake set and the frames."""
    aware, _ = model.client_breakdowns(
        base, queries, [], 12.0, 0, WAVELAN_2_4GHZ
    )
    assert aware.receive_s == overlap_total(base, queries)


def test_transmit_outside_awake_time():
    """A hand-picked case the draws also reach: an ACK sent while the
    daemon sleeps, overlapping transmit frames, and receive airtime
    under transmit airtime."""
    awake = [(1.0, 2.0), (2.0, 3.5)]
    rx = [(1.25, 1.75), (3.0, 3.25)]
    tx = [(0.5, 0.6), (1.5, 1.8), (1.6, 2.1), (3.25, 3.25)]
    for args in ((awake, rx, tx, 4.0, 2), ([], rx, tx, 4.0, 0)):
        aware, _ = model.client_breakdowns(*args, WAVELAN_2_4GHZ)
        assert _fields(aware) == _fields(
            integrate_intervals(*args, WAVELAN_2_4GHZ)
        )
