"""Postmortem policy replay — the paper's actual methodology (§4.1).

The paper never measured client energy live: the monitoring station
captured the wireless traffic once, and a simulator then computed "how
much energy the client would use by transitioning its WNIC between
modes **according to a given delay compensation algorithm**" — i.e.
one capture, many hypothetical client policies.

:func:`replay_policy` is that simulator. It re-runs the real
:class:`~repro.core.client.PowerAwareClient` daemon against a recorded
frame sequence: frames are replayed at their captured times, the
hypothetical WNIC's sleep/awake state decides which of them the client
would have received, and the result is analyzed with the same energy
model. Sweeping early-transition amounts (Figure 6) then costs one
capture instead of six live runs.

Note the inherent approximation the paper shares: the capture is
fixed, so a hypothetical client that misses *more* packets cannot
change the proxy's retransmission behaviour. For UDP video (Figure 6's
workload) there is no feedback path at this timescale and the replay
is faithful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from repro.sweep import SweepEngine

from repro.core.client import PowerAwareClient
from repro.core.delay_comp import AdaptiveCompensator, DelayCompensator
from repro.energy.analyzer import EnergyAnalyzer
from repro.energy.report import ClientReport
from repro.errors import TraceError
from repro.net.addr import Endpoint
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.sniffer import FrameRecord
from repro.sim import Simulator
from repro.wnic.power import PowerModel
from repro.wnic.states import Wnic


@dataclass(frozen=True, slots=True)
class ReplayResult:
    """Outcome of replaying one policy over one capture."""

    report: ClientReport
    frames_delivered: int
    frames_missed: int
    schedules_heard: int
    missed_schedules: int


def _rebuild_packet(frame: FrameRecord) -> Packet:
    """Reconstruct enough of a packet for the client daemon's logic."""
    return Packet(
        proto=frame.proto,
        src=Endpoint(frame.src_ip, frame.src_port or 1),
        dst=Endpoint(frame.dst_ip, frame.dst_port or 1),
        payload_size=frame.payload_size,
        tos_marked=frame.tos_marked,
        meta={} if frame.schedule is None else {"schedule": frame.schedule},
        created_at=frame.start,
    )


def replay_policy(
    frames: Sequence[FrameRecord],
    client_ip: str,
    compensator: DelayCompensator,
    power: PowerModel,
    duration_s: Optional[float] = None,
) -> ReplayResult:
    """Replay a capture against a hypothetical client policy.

    Args:
        frames: the monitoring station's capture (time-ordered).
        client_ip: which client to re-simulate.
        compensator: the delay-compensation algorithm under test.
        power: card power model for the final accounting.
        duration_s: analysis horizon (defaults to the last frame time).
    """
    if not frames:
        raise TraceError("cannot replay an empty capture")
    horizon = duration_s if duration_s is not None else frames[-1].end + 0.001

    sim = Simulator()
    node = Node(sim, f"replay-{client_ip}", client_ip)
    node.add_interface("wl0")
    wnic = Wnic(sim, node.name)
    daemon = PowerAwareClient(node, wnic, compensator)

    delivered = {"n": 0}
    missed = {"n": 0}
    # (destination, payload) of each unicast data frame slept through,
    # in the shape of the medium's ``data_misses``.
    data_misses: list[tuple[str, int]] = []

    def deliver(frame: FrameRecord) -> None:
        if frame.src_ip == client_ip:
            return  # our own (recorded) transmissions
        addressed = frame.broadcast or frame.dst_ip == client_ip
        if not addressed:
            return
        if wnic.is_awake:
            delivered["n"] += 1
            node.on_receive(node.interfaces["wl0"], _rebuild_packet(frame))
        else:
            missed["n"] += 1
            if frame.payload_size > 0 and not frame.broadcast:
                data_misses.append((client_ip, frame.payload_size))

    for frame in frames:
        if frame.end > horizon:
            break
        sim.call_at(frame.end, lambda f=frame: deliver(f))
    sim.run(until=horizon)

    analyzer = EnergyAnalyzer(
        list(frames), power, duration_s=horizon, misses=data_misses
    )
    report = analyzer.analyze(
        name=node.name,
        ip=client_ip,
        wnic=wnic,
        missed_schedules=daemon.missed_schedules,
        schedules_heard=daemon.schedules_heard,
        early_wait_s=daemon.early_wait_s,
        miss_recovery_s=daemon.miss_recovery_s,
    )
    return ReplayResult(
        report=report,
        frames_delivered=delivered["n"],
        frames_missed=missed["n"],
        schedules_heard=daemon.schedules_heard,
        missed_schedules=daemon.missed_schedules,
    )


def _replay_early(
    frames: Sequence[FrameRecord],
    client_ip: str,
    power: PowerModel,
    early_s: float,
    duration_s: Optional[float] = None,
) -> ReplayResult:
    """Replay one early-transition amount over a recorded capture.

    The adaptive compensator is built *inside* the task so the sweep
    parameters stay declarative (no callables in the cache key).
    """
    return replay_policy(
        frames,
        client_ip,
        AdaptiveCompensator(early_s=early_s),
        power,
        duration_s=duration_s,
    )


def sweep_early_amounts(
    frames: Sequence[FrameRecord],
    client_ip: str,
    power: PowerModel,
    early_amounts_s: Sequence[float],
    duration_s: Optional[float] = None,
    engine: Optional["SweepEngine"] = None,
) -> list[tuple[float, ReplayResult]]:
    """Figure 6 from one capture: replay several early amounts.

    The adaptive-compensator sweep fans out through the sweep engine
    (task :func:`_replay_early`), so replays cache and parallelize like
    live experiments.
    """
    from repro.sweep import SweepEngine, SweepSpec

    if engine is None:
        engine = SweepEngine()
    frame_list = list(frames)
    outcome = engine.run(
        SweepSpec.from_tasks(
            "replay_early_sweep",
            _replay_early,
            [
                {
                    "frames": frame_list,
                    "client_ip": client_ip,
                    "power": power,
                    "early_s": early,
                    "duration_s": duration_s,
                }
                for early in early_amounts_s
            ],
        )
    )
    return list(zip(early_amounts_s, outcome.results))
