"""The postmortem trace simulator (paper §3.1, §4.1).

Reads the monitoring station's capture after a run and produces one
:class:`~repro.energy.report.ClientReport` per client:

* high-/low-power residency from the client's WNIC transition log,
* receive/transmit residency from frame airtime overlapped with the
  awake timeline,
* packets lost (UDP) / dropped (TCP) from the medium's record of
  missed unicast data frames (kept in every obs mode),
* energy under a :class:`~repro.wnic.power.PowerModel`, versus the
  naive always-on client over the identical traffic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.energy.model import client_breakdowns
from repro.energy.report import ClientReport
from repro.errors import TraceError
from repro.net.sniffer import FrameRecord
from repro.wnic.power import PowerModel
from repro.wnic.states import Wnic

#: Per-client residency timeline: ip → ((time, cell_label), ...) steps,
#: each step holding from its time until the next step's time.
Residency = dict[str, tuple[tuple[float, str], ...]]


@dataclass
class _FrameIndex:
    """One-pass per-client index over the capture.

    Built lazily on first query; turns every per-client selector from an
    O(total frames) scan into a dict lookup. Positions are capture
    indices so unicast and broadcast interval lists can be re-merged in
    original capture order.
    """

    #: dst ip → [(position, start, end)] for unicast frames.
    unicast_rx: dict[str, list[tuple[int, float, float]]] = field(
        default_factory=dict
    )
    #: [(position, start, end, cell)] for broadcast frames.
    broadcasts: list[tuple[int, float, float, str]] = field(
        default_factory=list
    )
    #: src ip → [(start, end)].
    tx: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    #: dst ip → unicast data frames (payload > 0).
    data_frames: dict[str, list[FrameRecord]] = field(default_factory=dict)
    #: src ip → total payload bytes transmitted.
    sent_payload: dict[str, int] = field(default_factory=dict)
    #: dst ip → payload bytes of each missed unicast data frame.
    missed_payloads: dict[str, list[int]] = field(default_factory=dict)


class EnergyAnalyzer:
    """Postmortem per-client energy and loss accounting.

    ``residency`` (campus runs) maps each client to its roaming
    timeline; broadcast frames stamped with a cell label are then only
    charged to clients resident in that cell at the frame's start.
    Unlabeled frames (single-cell captures) are charged to everyone,
    which reproduces the paper's single-cell accounting.

    ``misses`` lists each missed unicast data frame as
    ``(destination, payload bytes)``: the medium's ``data_misses`` (the
    cells' lists, concatenated, on a campus) or a replay's own.
    """

    def __init__(
        self,
        frames: Sequence[FrameRecord],
        power: PowerModel,
        duration_s: float,
        misses: Sequence[tuple[str, int]] = (),
        residency: Optional[Residency] = None,
    ) -> None:
        if duration_s <= 0:
            raise TraceError(f"duration must be positive: {duration_s!r}")
        self.frames = list(frames)
        self.power = power
        self.duration_s = duration_s
        self.misses = misses
        self.residency = residency
        self._index: Optional[_FrameIndex] = None

    def _ensure_index(self) -> _FrameIndex:
        if self._index is not None:
            return self._index
        index = _FrameIndex()
        for position, frame in enumerate(self.frames):
            if frame.broadcast:
                index.broadcasts.append(
                    (position, frame.start, frame.end, frame.cell)
                )
            else:
                index.unicast_rx.setdefault(frame.dst_ip, []).append(
                    (position, frame.start, frame.end)
                )
                if frame.payload_size > 0:
                    index.data_frames.setdefault(frame.dst_ip, []).append(
                        frame
                    )
            index.tx.setdefault(frame.src_ip, []).append(
                (frame.start, frame.end)
            )
            index.sent_payload[frame.src_ip] = (
                index.sent_payload.get(frame.src_ip, 0) + frame.payload_size
            )
        for dst_ip, payload in self.misses:
            index.missed_payloads.setdefault(dst_ip, []).append(payload)
        self._index = index
        return index

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

    # -- frame selection ---------------------------------------------------

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

    def tx_intervals(self, ip: str) -> list[tuple[float, float]]:
        """Airtime of frames transmitted by the client."""
        return list(self._ensure_index().tx.get(ip, ()))

    def data_frames_to(self, ip: str) -> list[FrameRecord]:
        """Unicast data frames (payload > 0) addressed to ``ip``."""
        return list(self._ensure_index().data_frames.get(ip, ()))

    def missed_data_packets(self, ip: str) -> list[int]:
        """Payload bytes of each missed unicast data frame to ``ip``."""
        return list(self._ensure_index().missed_payloads.get(ip, ()))

    # -- analysis ----------------------------------------------------------

    def analyze(
        self,
        name: str,
        ip: str,
        wnic: Wnic,
        kind: str = "video",
        optimal_saved_pct: Optional[float] = None,
        missed_schedules: int = 0,
        schedules_heard: int = 0,
        early_wait_s: float = 0.0,
        miss_recovery_s: float = 0.0,
        extra: Optional[dict] = None,
    ) -> ClientReport:
        """Produce the report for one client.

        ``missed_schedules`` / ``early_wait_s`` / ``miss_recovery_s``
        come from the client daemon's own counters — the trace cannot
        distinguish *why* a client was awake, only *that* it was.
        """
        breakdown, naive = client_breakdowns(
            awake=wnic.awake_intervals(self.duration_s),
            rx_frames=self.rx_intervals(ip),
            tx_frames=self.tx_intervals(ip),
            duration_s=self.duration_s,
            wake_count=wnic.wake_count,
            power=self.power,
        )
        data_frames = self.data_frames_to(ip)
        missed = self.missed_data_packets(ip)
        delivered_bytes = (
            sum(f.payload_size for f in data_frames) - sum(missed)
        )
        return ClientReport(
            name=name,
            ip=ip,
            kind=kind,
            breakdown=breakdown,
            naive=naive,
            bytes_received=max(0, delivered_bytes),
            bytes_sent=self._ensure_index().sent_payload.get(ip, 0),
            packets_expected=len(data_frames),
            packets_missed=len(missed),
            missed_schedules=missed_schedules,
            schedules_heard=schedules_heard,
            early_wait_s=early_wait_s,
            miss_recovery_s=miss_recovery_s,
            optimal_saved_pct=optimal_saved_pct,
            extra=dict(extra or {}),
        )
