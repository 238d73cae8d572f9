"""Baseline comparison: 802.11b power-save mode vs the paper's proxy.

The paper's related-work section argues (citing Chandra & Vahdat) that
802.11b PSM "is not a good match for multimedia". This driver makes
the comparison concrete on this codebase: the same CBR-ish UDP stream
delivered to (a) a PSM station behind a PSM access point, (b) a
power-aware client behind the scheduling proxy, (c) a naive always-on
client — measuring energy saved *and* per-packet delivery latency.

The three policy runs fan out through the sweep engine (task
:func:`_run_one`), so they cache and parallelize like every other
driver; ``SWP001`` keeps it that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.bandwidth_model import calibrate
from repro.core.client import PowerAwareClient
from repro.core.proxy import TransparentProxy
from repro.core.scheduler import DynamicScheduler
from repro.energy.analyzer import EnergyAnalyzer
from repro.net.access_point import AccessPoint
from repro.net.addr import Endpoint
from repro.net.link import Link
from repro.net.medium import WirelessMedium
from repro.net.node import Node
from repro.net.sniffer import MonitoringStation
from repro.net.udp import UdpSocket
from repro.sim import RngStreams, Simulator
from repro.sweep import SweepEngine, SweepSpec
from repro.units import kbps, mbps, ms
from repro.wnic.power import WAVELAN_2_4GHZ
from repro.wnic.psm import PsmAccessPoint, PsmClient
from repro.wnic.states import Wnic

CLIENT_IP = "10.0.1.1"
SERVER_IP = "10.0.2.1"
#: The compared stream's rate: the 256K tier's effective bitrate.
STREAM_KBPS = 225.0


@dataclass(frozen=True, slots=True)
class BaselineResult:
    """One policy's outcome."""

    policy: str
    energy_saved_pct: float
    mean_latency_ms: float
    p95_latency_ms: float
    packets_delivered: int
    packets_missed: int


def _run_one(policy: str, duration_s: float, rate_bps: float, seed: int) -> BaselineResult:
    sim = Simulator()
    streams = RngStreams(seed)

    medium = WirelessMedium(sim, rng=streams.get("backoff"))
    ap_cls = PsmAccessPoint if policy == "psm" else AccessPoint
    ap = ap_cls(sim, "ap", "10.0.0.254", rng=streams.get("ap"))
    medium.attach(ap.wireless, gateway=True)
    monitor = MonitoringStation(sim)
    monitor.attach_to(medium)

    client = Node(sim, "client", CLIENT_IP)
    wl0 = client.add_interface("wl0")
    medium.attach(wl0)
    client.set_default_route(wl0)
    wnic = Wnic(sim, "client")

    server = Node(sim, "server", SERVER_IP)
    server_iface = server.add_interface("eth0")
    server.set_default_route(server_iface)

    if policy == "proxy":
        proxy = TransparentProxy(sim, "proxy", "10.0.0.1", {CLIENT_IP})
        Link(sim, mbps(100), ms(0.1)).attach(proxy.air, ap.wired)
        Link(sim, mbps(100), ms(0.1)).attach(proxy.lan, server_iface)
        proxy.wire_routes({SERVER_IP})
        scheduler = DynamicScheduler(proxy, calibrate(medium), interval_s=0.1)
        proxy.attach_scheduler(scheduler)
        proxy.start()
        PowerAwareClient(client, wnic)
    else:
        Link(sim, mbps(100), ms(0.1)).attach(server_iface, ap.wired)
        if policy == "psm":
            wl0.rx_gate = wnic.can_receive
            PsmClient(client, wnic, ap)
        # "naive": wnic stays awake, no gate.

    latencies: list[float] = []
    UdpSocket(
        client, 5004,
        on_receive=lambda p: latencies.append(sim.now - p.created_at),
    )
    sender = UdpSocket(server, 20000)
    packet_gap = 700 * 8 / rate_bps

    def stream():
        while sim.now < duration_s:
            sender.sendto(700, Endpoint(CLIENT_IP, 5004))
            yield sim.timeout(packet_gap)

    sim.process(stream())
    sim.run(until=duration_s + 1.0)

    analyzer = EnergyAnalyzer(
        monitor.frames, WAVELAN_2_4GHZ, duration_s=sim.now,
        misses=medium.data_misses,
    )
    report = analyzer.analyze("client", CLIENT_IP, wnic)
    mean_latency = sum(latencies) / len(latencies) if latencies else 0.0
    p95 = sorted(latencies)[int(len(latencies) * 0.95)] if latencies else 0.0
    return BaselineResult(
        policy=policy,
        energy_saved_pct=report.energy_saved_pct,
        mean_latency_ms=mean_latency * 1000.0,
        p95_latency_ms=p95 * 1000.0,
        packets_delivered=len(latencies),
        packets_missed=report.packets_missed,
    )


def psm_comparison(
    seed: int = 0, quick: bool = False,
    engine: Optional[SweepEngine] = None,
) -> list[dict]:
    """Run the three policies on the same stream; returns one row each."""
    duration = 20.0 if quick else 60.0
    policies = ("naive", "psm", "proxy")
    if engine is None:
        engine = SweepEngine()
    outcome = engine.run(
        SweepSpec.from_tasks(
            "psm_comparison",
            _run_one,
            [
                {
                    "policy": policy,
                    "duration_s": duration,
                    "rate_bps": kbps(STREAM_KBPS),
                    "seed": seed,
                }
                for policy in policies
            ],
        )
    )
    return [
        {
            "experiment": "psm-comparison",
            "policy": result.policy,
            "energy_saved_pct": result.energy_saved_pct,
            "mean_latency_ms": result.mean_latency_ms,
            "p95_latency_ms": result.p95_latency_ms,
            "packets_delivered": result.packets_delivered,
            "packets_missed": result.packets_missed,
        }
        for result in outcome.results
    ]
