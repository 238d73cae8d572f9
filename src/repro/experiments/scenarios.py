"""Topology builders reproducing the paper's testbed (§4.1).

The physical layout::

    servers --- 100 Mb/s LAN --- proxy --- 100 Mb/s --- AP ))) clients
                                                         )))  monitor

Every stochastic element draws from named streams of one seeded
:class:`~repro.sim.random.RngStreams`, so a scenario is a pure function
of its configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.campus import (
    CampusTopology,
    Cell,
    HandoffCoordinator,
    MobilityModel,
)
from repro.campus.mobility import cell_label
from repro.core.proxy import TransparentProxy
from repro.faults import FaultController, FaultCounters, FaultPlan
from repro.net.access_point import AccessPoint
from repro.net.channel import ChannelModel, ChannelPlan
from repro.net.link import Link
from repro.net.medium import WirelessMedium
from repro.errors import ConfigurationError
from repro.net.node import Node
from repro.net.packet import reset_packet_ids
from repro.net.sniffer import MonitoringStation
from repro.obs import NULL_RECORDER, OBS_MODES, Recorder, SimRecorder
from repro.sim import RngStreams, Simulator
from repro.sim.random import buffered_draws
from repro.units import mbps, ms
from repro.wnic.states import Wnic

#: Address plan (mirrors the paper's single-AP cell).
PROXY_IP = "10.0.0.1"
AP_IP = "10.0.0.254"
VIDEO_SERVER_IP = "10.0.2.1"
WEB_SERVER_IP = "10.0.2.2"
FTP_SERVER_IP = "10.0.2.3"
CLIENT_IP_BASE = "10.0.1."


def client_ip(index: int) -> str:
    """The address of client ``index`` (0-based)."""
    return f"{CLIENT_IP_BASE}{index + 1}"


#: The fixed testbed of §4.1: 100 Mb/s wired links and sporadic channel
#: loss in the cell. The 11 Mb/s WaveLAN airtime and the AP's forwarding
#: jitter are constants of :mod:`repro.net.medium` and
#: :mod:`repro.net.access_point`.
WIRED_RATE_BPS = mbps(100)
WIRED_LATENCY_S = ms(0.1)
MEDIUM_LOSS_RATE = 0.0005  # sporadic channel loss
SERVERS = (VIDEO_SERVER_IP, WEB_SERVER_IP, FTP_SERVER_IP)


@dataclass
class ScenarioConfig:
    """What varies between builds of the testbed."""

    n_clients: int = 10
    seed: int = 0
    tcp_mode: str = "split"  # see TransparentProxy
    #: Optional deterministic fault-injection plan (see repro.faults).
    faults: Optional[FaultPlan] = None
    #: Optional per-client channel model (see repro.net.channel). Draws
    #: on exclusive ``channel*`` streams: installing one never perturbs
    #: fault-plan or backoff replays.
    channel: Optional[ChannelPlan] = None
    #: Observability mode, a key of :data:`repro.obs.OBS_MODES`; "off"
    #: records through the shared NullRecorder.
    obs_mode: str = "full"
    #: Optional multi-cell campus layout (see repro.campus). None — or
    #: a trivial topology — builds the legacy single-AP testbed
    #: byte-identically.
    campus: Optional[CampusTopology] = None


@dataclass
class ClientHandle:
    """One mobile client: node + card (+ daemon, attached later)."""

    index: int
    node: Node
    wnic: Wnic
    daemon: object = None


@dataclass
class Scenario:
    """A fully wired testbed, ready for workloads and a scheduler."""

    config: ScenarioConfig
    sim: Simulator
    streams: RngStreams
    medium: WirelessMedium
    ap: AccessPoint
    proxy: TransparentProxy
    servers: dict[str, Node]
    clients: list[ClientHandle]
    monitor: MonitoringStation
    lan_hub: Node = None
    #: Scenario-wide drop/fault accounting (always present).
    counters: FaultCounters = None
    #: Installed fault controller, or None when no plan was given.
    faults: Optional[FaultController] = None
    #: Installed channel model, or None when no plan was given.
    channel: Optional[ChannelModel] = None
    #: The shared instrumentation recorder (NULL_RECORDER when off).
    obs: Recorder = NULL_RECORDER
    #: The campus layout the scenario was built under (None = legacy).
    campus: Optional[CampusTopology] = None
    #: One entry per cell; ``cells[0]`` aliases the legacy
    #: medium/ap/monitor/proxy fields above.
    cells: list[Cell] = field(default_factory=list)
    #: Roaming state machine (None outside multi-cell runs).
    mobility: Optional[MobilityModel] = None
    #: Shard migration coordinator (None outside multi-cell runs).
    handoff: Optional[HandoffCoordinator] = None

    @property
    def video_server(self) -> Node:
        return self.servers[VIDEO_SERVER_IP]

    @property
    def web_server(self) -> Node:
        return self.servers[WEB_SERVER_IP]

    @property
    def ftp_server(self) -> Node:
        return self.servers[FTP_SERVER_IP]


def build_scenario(config: Optional[ScenarioConfig] = None) -> Scenario:
    """Assemble the testbed of §4.1 from a configuration.

    With a non-trivial ``config.campus`` the build replicates the cell
    (medium + AP + monitor + proxy shard) ``n_cells`` times behind one
    server LAN hub and partitions the clients round-robin across cells.
    Cell 0 keeps the legacy names, addresses and RNG streams, so a
    1-cell campus is byte-identical to the pre-campus testbed.
    """
    config = config or ScenarioConfig()
    campus = config.campus
    n_cells = 1 if campus is None else campus.n_cells
    if n_cells > config.n_clients:
        raise ConfigurationError(
            f"campus with {n_cells} cells needs at least {n_cells} "
            f"clients: {config.n_clients}"
        )
    reset_packet_ids()
    sim = Simulator()
    streams = RngStreams(seed=config.seed)
    keeps = OBS_MODES.get(config.obs_mode)
    if keeps is None:
        raise ConfigurationError(f"unknown obs_mode: {config.obs_mode!r}")
    recorder: Recorder = (
        SimRecorder(config.obs_mode) if any(keeps) else NULL_RECORDER
    )
    counters = FaultCounters()

    #: Per-cell initial client partition (round-robin by index).
    cell_clients: list[set[str]] = [
        {client_ip(i) for i in range(config.n_clients) if i % n_cells == k}
        for k in range(n_cells)
    ]

    # -- wireless cells -----------------------------------------------------
    # Cell 0 uses the legacy stream names, node names and addresses;
    # extra cells suffix the streams with "@c{k}" and take addresses
    # from the 10.0.20{k} blocks.
    cells: list[Cell] = []
    for k in range(n_cells):
        suffix = "" if k == 0 else f"@c{k}"
        label = cell_label(k) if n_cells > 1 else ""
        loss_draw = buffered_draws(streams.get(f"medium-loss{suffix}").random)
        drop = None
        if MEDIUM_LOSS_RATE > 0:

            def drop(packet, _draw=loss_draw, _rate=MEDIUM_LOSS_RATE):
                return _draw() < _rate

        medium = WirelessMedium(
            sim,
            rng=streams.get(f"medium-backoff{suffix}"),
            obs=recorder,
            drop=drop,
            counters=counters,
        )
        if label:
            medium.set_cell(label)
        ap = AccessPoint(
            sim,
            "ap" if k == 0 else f"ap{k}",
            AP_IP if k == 0 else f"10.0.{200 + k}.254",
            rng=streams.get(f"ap-jitter{suffix}"),
            obs=recorder,
        )
        medium.attach(ap.wireless, gateway=True)

        monitor = MonitoringStation(
            sim, name="monitor" if k == 0 else f"monitor{k}"
        )
        monitor.attach_to(medium)

        proxy = TransparentProxy(
            sim,
            "proxy" if k == 0 else f"proxy{k}",
            PROXY_IP if k == 0 else f"10.0.{200 + k}.1",
            cell_clients[k],
            obs=recorder,
            tcp_mode=config.tcp_mode,
        )
        Link(
            sim, WIRED_RATE_BPS, WIRED_LATENCY_S,
            counters=counters,
        ).attach(proxy.air, ap.wired)
        cells.append(
            Cell(
                index=k, label=label, medium=medium, ap=ap,
                monitor=monitor, proxy=proxy,
            )
        )

    # -- server LAN (shared by every cell) -----------------------------------
    hub = Node(sim, "lan-hub", "10.0.2.254", obs=recorder)
    hub.forwarding = True
    uplinks = []
    for k, cell in enumerate(cells):
        uplink = hub.add_interface("uplink" if k == 0 else f"uplink{k}")
        Link(
            sim, WIRED_RATE_BPS, WIRED_LATENCY_S,
            counters=counters,
        ).attach(cell.proxy.lan, uplink)
        uplinks.append(uplink)
    hub.set_default_route(uplinks[0])

    servers: dict[str, Node] = {}
    for server_addr in SERVERS:
        server = Node(sim, f"server-{server_addr}", server_addr, obs=recorder)
        server_iface = server.add_interface("eth0")
        hub_iface = hub.add_interface(f"port-{server_addr}")
        Link(
            sim, WIRED_RATE_BPS, WIRED_LATENCY_S,
            counters=counters,
        ).attach(server_iface, hub_iface)
        server.set_default_route(server_iface)
        hub.add_route(server_addr, hub_iface)
        servers[server_addr] = server

    for cell in cells:
        cell.proxy.wire_routes(set(SERVERS))
        cell.proxy.set_default_route(cell.proxy.lan)

    # -- clients ------------------------------------------------------------
    clients: list[ClientHandle] = []
    client_ifaces: dict[str, "object"] = {}
    for index in range(config.n_clients):
        ip = client_ip(index)
        node = Node(sim, f"client-{index}", ip, obs=recorder)
        iface = node.add_interface("wl0")
        cells[index % n_cells].medium.attach(iface)
        node.set_default_route(iface)
        wnic = Wnic(sim, node.name, obs=recorder)
        clients.append(ClientHandle(index=index, node=node, wnic=wnic))
        client_ifaces[ip] = iface
        if n_cells > 1:
            hub.add_route(ip, uplinks[index % n_cells])

    # -- fault injection ----------------------------------------------------
    # The controller's streams are cell 0's (legacy names); the other
    # cells share the same judge, so churn composes with roaming no
    # matter which cell a client is in when its outage window opens.
    controller = None
    if config.faults is not None:
        controller = FaultController(
            config.faults,
            medium=cells[0].medium,
            streams=streams,
            ip_of=client_ip,
        ).install()
        for cell in cells[1:]:
            cell.medium.faults = cells[0].medium.faults

    # -- per-client channel model -------------------------------------------
    channel_model = None
    if config.channel is not None:
        all_client_ips = {client_ip(i) for i in range(config.n_clients)}
        channel_model = ChannelModel(
            config.channel,
            streams,
            sorted(all_client_ips),
            obs=recorder,
        )
        for cell in cells:
            cell.medium.channel = channel_model
            cell.proxy.channel = channel_model

    # -- campus machinery ----------------------------------------------------
    coordinator = None
    mobility = None
    if n_cells > 1:
        assert campus is not None
        coordinator = HandoffCoordinator(
            sim,
            cells,
            hub,
            uplinks,
            client_ifaces,
            campus.handoff,
            obs=recorder,
            counters=counters,
        )
        mobility = MobilityModel(
            sim,
            campus.mobility,
            n_cells,
            [client_ip(i) for i in range(config.n_clients)],
            streams,
            on_roam=coordinator.handoff,
            obs=recorder,
        )

    return Scenario(
        config=config,
        sim=sim,
        streams=streams,
        medium=cells[0].medium,
        ap=cells[0].ap,
        proxy=cells[0].proxy,
        servers=servers,
        clients=clients,
        monitor=cells[0].monitor,
        lan_hub=hub,
        counters=counters,
        faults=controller,
        channel=channel_model,
        obs=recorder,
        campus=campus,
        cells=cells,
        mobility=mobility,
        handoff=coordinator,
    )
