"""The analyzer picks the same receive airtime per client as before.

The oracle below is a verbatim copy of ``EnergyAnalyzer._broadcasts_heard``
and ``EnergyAnalyzer.rx_intervals`` as they were before the analyzer
split the broadcasts by cell once per capture: they bisected the
roaming timeline once per broadcast frame per client, then re-merged
unicast and broadcast frames in capture order. The index they read is
rebuilt here the way it was built then.

The analyzer now returns a client's unicast airtime followed by its
broadcast airtime. ``merge_intervals`` sorts by start and the union it
builds does not depend on input order, so the same multiset of
intervals must give every ``EnergyBreakdown`` field the same float.
The draws cover labelled and unlabelled broadcasts, broadcasts that
start before the first residency step or exactly at a roam, cells no
client visits, and a client missing from the residency map.
"""

from bisect import bisect_right
from collections import Counter
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.analyzer import EnergyAnalyzer
from repro.energy.model import client_breakdowns
from repro.net.sniffer import FrameRecord
from repro.wnic.power import WAVELAN_2_4GHZ

# -- the oracle: the selection as it was ------------------------------------


class ParentSelection:
    """The part of the old frame index the two methods read, and the
    two methods themselves, verbatim."""

    def __init__(self, frames, residency):
        self.residency = residency
        self._index = SimpleNamespace(unicast_rx={}, broadcasts=[])
        for position, frame in enumerate(frames):
            if frame.broadcast:
                self._index.broadcasts.append(
                    (position, frame.start, frame.end, frame.cell)
                )
            else:
                self._index.unicast_rx.setdefault(frame.dst_ip, []).append(
                    (position, frame.start, frame.end)
                )

    def _ensure_index(self):
        return self._index

    def _broadcasts_heard(
        self, ip: str
    ) -> list[tuple[int, float, float, str]]:
        """Broadcast frames attributable to ``ip``'s radio."""
        broadcasts = self._ensure_index().broadcasts
        if self.residency is None:
            return broadcasts
        timeline = self.residency.get(ip)
        if timeline is None:
            return broadcasts
        times = [at for at, _ in timeline]
        heard = []
        for record in broadcasts:
            cell = record[3]
            if cell:
                step = max(0, bisect_right(times, record[1]) - 1)
                if timeline[step][1] != cell:
                    continue
            heard.append(record)
        return heard

    def rx_intervals(self, ip: str) -> list[tuple[float, float]]:
        """Airtime of frames the client's radio would decode (unicast to
        it plus broadcasts), in capture order."""
        unicast = self._ensure_index().unicast_rx.get(ip, [])
        broadcasts = self._broadcasts_heard(ip)
        merged: list[tuple[float, float]] = []
        i = j = 0
        while i < len(unicast) and j < len(broadcasts):
            if unicast[i][0] < broadcasts[j][0]:
                merged.append((unicast[i][1], unicast[i][2]))
                i += 1
            else:
                merged.append((broadcasts[j][1], broadcasts[j][2]))
                j += 1
        merged.extend((start, end) for _, start, end in unicast[i:])
        merged.extend(
            (start, end) for _, start, end, _cell in broadcasts[j:]
        )
        return merged


# -- the comparison ------------------------------------------------------------

#: Clients 0–2 may have a residency timeline; client 3 never has one.
CLIENTS = [f"10.0.1.{i}" for i in range(4)]
#: Labels of broadcasts and residency steps (an unlabelled broadcast has "").
CELLS = ["cell-a", "cell-b", "cell-c"]
AP_IP = "10.0.0.254"
BROADCAST_IP = "255.255.255.255"

#: Times on a quarter-second grid make a broadcast that starts exactly
#: at a roam common; arbitrary floats exercise everything between.
times = st.one_of(
    st.integers(0, 40).map(lambda k: k / 4),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)


def frame(start, end, dst, src=AP_IP, broadcast=False, cell=""):
    return FrameRecord(
        start=start, end=end, src_ip=src, src_port=5000, dst_ip=dst,
        dst_port=7000, proto="udp", wire_size=1062, payload_size=1000,
        tos_marked=False, broadcast=broadcast, packet_id=0, sender="ap",
        cell=cell,
    )


@st.composite
def captures(draw) -> list[FrameRecord]:
    """Unicast frames to and from the clients and broadcasts labelled
    with a cell or with none, in arbitrary order."""
    frames = []
    for start, length, kind in draw(
        st.lists(
            st.tuples(
                times,
                st.sampled_from([0.0, 0.25]) | times,
                st.sampled_from(
                    ["down", "up", "broadcast"] + [f"cast:{c}" for c in CELLS]
                ),
            ),
            max_size=30,
        )
    ):
        end = start + length
        client = draw(st.sampled_from(CLIENTS))
        if kind == "down":
            frames.append(frame(start, end, client))
        elif kind == "up":
            frames.append(frame(start, end, AP_IP, src=client))
        elif kind == "broadcast":
            frames.append(frame(start, end, BROADCAST_IP, broadcast=True))
        else:
            frames.append(
                frame(start, end, BROADCAST_IP, broadcast=True,
                      cell=kind.split(":", 1)[1])
            )
    return frames


@st.composite
def residencies(draw):
    """None, or a non-empty time-ordered timeline for some of clients
    0–2 (repeated roam times included); client 3 is never in it."""
    if draw(st.booleans()):
        return None
    residency = {}
    for ip in CLIENTS[:3]:
        if draw(st.booleans()):
            steps = sorted(draw(st.lists(times, min_size=1, max_size=5)))
            residency[ip] = tuple(
                (at, draw(st.sampled_from(CELLS))) for at in steps
            )
    return residency


@st.composite
def awake_sets(draw) -> list[tuple[float, float]]:
    """Sorted intervals that touch but never overlap."""
    points = sorted(draw(st.lists(times, max_size=10)))
    if len(points) % 2:
        points.pop()
    return [(points[i], points[i + 1]) for i in range(0, len(points), 2)]


def _check(frames, residency, awake) -> None:
    analyzer = EnergyAnalyzer(
        frames, WAVELAN_2_4GHZ, duration_s=12.0, residency=residency
    )
    oracle = ParentSelection(frames, residency)
    for ip in CLIENTS:
        rx = analyzer.rx_intervals(ip)
        before = oracle.rx_intervals(ip)
        assert Counter(rx) == Counter(before), ip
        tx = analyzer.tx_intervals(ip)
        now_both = client_breakdowns(awake, rx, tx, 12.0, 3, WAVELAN_2_4GHZ)
        old_both = client_breakdowns(
            awake, before, tx, 12.0, 3, WAVELAN_2_4GHZ
        )
        assert now_both == old_both, ip


@settings(max_examples=300, deadline=None)
@given(frames=captures(), residency=residencies(), awake=awake_sets())
def test_selection_equals_the_oracle(frames, residency, awake):
    _check(frames, residency, awake)


def test_roam_boundaries():
    """Hand-picked cases the draws also reach: a labelled broadcast
    before the first step, one starting exactly at a roam, an
    unlabelled one, and a client with no timeline."""
    frames = [
        frame(0.5, 0.6, BROADCAST_IP, broadcast=True, cell="cell-b"),
        frame(1.0, 1.1, CLIENTS[0]),
        frame(2.0, 2.1, BROADCAST_IP, broadcast=True, cell="cell-a"),
        frame(2.0, 2.2, BROADCAST_IP, broadcast=True, cell="cell-b"),
        frame(3.0, 3.1, BROADCAST_IP, broadcast=True),
    ]
    residency = {
        CLIENTS[0]: ((1.0, "cell-b"), (2.0, "cell-a")),
        CLIENTS[1]: ((1.0, "cell-a"), (2.0, "cell-b"), (2.0, "cell-c")),
    }
    analyzer = EnergyAnalyzer(
        frames, WAVELAN_2_4GHZ, duration_s=4.0, residency=residency
    )
    assert sorted(analyzer.rx_intervals(CLIENTS[0])) == [
        (0.5, 0.6), (1.0, 1.1), (2.0, 2.1), (3.0, 3.1),
    ]
    assert sorted(analyzer.rx_intervals(CLIENTS[1])) == [(3.0, 3.1)]
    assert sorted(analyzer.rx_intervals(CLIENTS[3])) == [
        (0.5, 0.6), (2.0, 2.1), (2.0, 2.2), (3.0, 3.1),
    ]
    _check(frames, residency, [(0.0, 1.5), (1.9, 3.5)])
