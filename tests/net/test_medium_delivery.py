"""Frame delivery through the medium's per-address index.

The medium looks up each unicast frame's receivers in an index instead
of walking every station. These tests pin that the index changes who
is visited, never what happens: a differential test replays random
topology changes against a reference full scan kept here, and a
design test checks that a unicast frame touches only its addressee
and the monitor.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addr import BROADCAST_IP, Endpoint
from repro.net.medium import WirelessMedium
from repro.net.node import Interface, Node
from repro.net.packet import Packet
from repro.obs.recorder import Recorder
from repro.sim import Simulator

GATEWAY_IP = "10.0.0.254"
WIRED_IP = "10.0.2.1"
#: Client addresses; two clients share the last one.
CLIENT_IPS = ("10.0.1.1", "10.0.1.2", "10.0.1.3", "10.0.1.3")
#: One monitor at the sniffer's usual address, one sharing a client's.
MONITOR_IPS = ("0.0.0.0", "10.0.1.2")
DESTINATIONS = (BROADCAST_IP, WIRED_IP, GATEWAY_IP) + CLIENT_IPS[:3]


class _MissLog(Recorder):
    """Appends every ``medium.miss`` event to a shared log."""

    def __init__(self, log: list) -> None:
        self.log = log

    def event(self, time, category, **fields) -> None:
        if category == "medium.miss":
            self.log.append(("miss", fields["dst"], fields["packet_id"]))


class _Cell:
    """A medium plus the test's own model of it, kept side by side."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.log: list = []
        self.medium = WirelessMedium(
            self.sim, rng=None, obs=_MissLog(self.log)
        )
        self.gateway = self._iface("gw", GATEWAY_IP)
        self.clients = [
            self._iface(f"c{index}", ip) for index, ip in enumerate(CLIENT_IPS)
        ]
        self.monitors = [
            self._iface(f"m{index}", ip) for index, ip in enumerate(MONITOR_IPS)
        ]
        for monitor in self.monitors:
            monitor.promiscuous = True
        self.asleep: set[str] = set()
        for iface in self.clients:
            iface.rx_gate = (
                lambda packet, name=iface.node.name: name not in self.asleep
            )
        #: The model: attached (iface, promiscuous-at-attach), in order.
        self.stations: list[tuple[Interface, bool]] = []
        self.departed: set[str] = set()
        self.attach(self.gateway, gateway=True)

    def _iface(self, name: str, ip: str) -> Interface:
        iface = Node(self.sim, name, ip).add_interface("wl0")
        iface.deliver = (
            lambda packet, name=name: self.log.append(
                ("deliver", name, packet.packet_id)
            )
        )
        return iface

    # -- topology, applied to the medium and the model alike ------------

    def attach(self, iface: Interface, gateway: bool = False) -> None:
        self.medium.attach(iface, gateway=gateway)
        self.stations.append((iface, iface.promiscuous))
        self.departed.discard(iface.node.ip)

    def detach(self, iface: Interface) -> None:
        self.medium.detach(iface)
        self.stations = [s for s in self.stations if s[0] is not iface]

    def roam_away(self, iface: Interface) -> None:
        self.detach(iface)
        self.medium.departed.add(iface.node.ip)
        self.departed.add(iface.node.ip)

    # -- the reference: one full scan of the cell per frame ---------------

    def reference(self, src: Interface, packet: Packet) -> tuple[list, list]:
        log: list = []
        data_misses: list = []
        dst = packet.dst.ip
        for iface, promiscuous in self.stations:
            if iface is src:
                continue
            if promiscuous:
                log.append(("deliver", iface.node.name, packet.packet_id))
                continue
            if not (packet.is_broadcast or iface.node.ip == dst):
                continue
            if iface.can_receive(packet):
                log.append(("deliver", iface.node.name, packet.packet_id))
            else:
                log.append(("miss", iface.node.ip, packet.packet_id))
                if not packet.is_broadcast and packet.payload_size > 0:
                    data_misses.append((dst, packet.payload_size))
        if packet.is_broadcast or any(
            iface.node.ip == dst for iface, _ in self.stations
        ):
            return log, data_misses
        if dst in self.departed:
            log.append(("miss", dst, packet.packet_id))
            if packet.payload_size > 0:
                data_misses.append((dst, packet.payload_size))
            return log, data_misses
        if src is not self.gateway:
            log.append(("deliver", "gw", packet.packet_id))
        return log, data_misses

    def send(self, src: Interface, dst_ip: str, payload: int) -> None:
        packet = Packet(
            proto="udp",
            src=Endpoint(src.node.ip, 5000),
            dst=Endpoint(dst_ip, 7000),
            payload_size=payload,
        )
        expected, expected_misses = self.reference(src, packet)
        del self.log[:]
        misses_before = len(self.medium.data_misses)
        src.send(packet)
        self.sim.run()
        assert self.log == expected
        assert self.medium.data_misses[misses_before:] == expected_misses


_pick = st.integers(min_value=0, max_value=len(CLIENT_IPS) - 1)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("attach"), _pick),
        st.tuples(st.just("detach"), _pick),
        st.tuples(st.just("roam"), _pick),
        st.tuples(st.just("sleep"), _pick),
        st.tuples(st.just("monitor"), st.integers(0, len(MONITOR_IPS) - 1)),
        st.tuples(st.just("flip"), st.integers(0, len(MONITOR_IPS) - 1)),
        st.tuples(st.just("payload"), st.sampled_from((0, 700))),
    ),
    max_size=30,
)


def _probe(cell: _Cell, payload: int) -> None:
    """Send from the gateway and every attached client to every kind
    of destination, checking each frame against the reference."""
    senders = [cell.gateway] + [
        iface for iface in cell.clients if iface.channel is cell.medium
    ]
    for src in senders:
        for dst_ip in DESTINATIONS:
            cell.send(src, dst_ip, payload)


@settings(max_examples=400, deadline=None)
@given(steps=_steps)
def test_delivery_matches_full_scan(steps):
    cell = _Cell()
    payload = 700
    for op, arg in steps:
        if op in ("attach", "detach", "roam", "sleep"):
            iface = cell.clients[arg]
            attached = iface.channel is cell.medium
            if op == "attach" and not attached:
                cell.attach(iface)
            elif op == "detach" and attached:
                cell.detach(iface)
            elif op == "roam" and attached:
                cell.roam_away(iface)
            elif op == "sleep":
                cell.asleep ^= {iface.node.name}
        elif op == "monitor":
            monitor = cell.monitors[arg]
            if monitor.channel is cell.medium:
                cell.detach(monitor)
            else:
                cell.attach(monitor)
        elif op == "flip":
            # Read at attach time: flipping an attached interface's flag
            # changes nothing until it attaches again.
            monitor = cell.monitors[arg]
            monitor.promiscuous = not monitor.promiscuous
        else:
            payload = arg
        _probe(cell, payload)
    assert [iface for iface, _ in cell.stations] == list(cell.medium.stations)


class _CountingInterface(Interface):
    """Logs itself whenever one of its attributes is read."""

    touched: list = []

    def __getattribute__(self, name):
        _CountingInterface.touched.append(self)
        return super().__getattribute__(name)


def test_unicast_frame_touches_only_addressee_and_monitor():
    sim = Simulator()
    medium = WirelessMedium(sim, rng=None)
    gateway = Node(sim, "gw", GATEWAY_IP).add_interface("wl0")
    medium.attach(gateway, gateway=True)
    monitor_node = Node(sim, "monitor", "0.0.0.0")
    monitor = _CountingInterface(monitor_node, "wl0")
    monitor.promiscuous = True
    monitor.deliver = lambda packet: None
    medium.attach(monitor)
    stations = []
    for index in range(50):
        node = Node(sim, f"c{index}", f"10.0.1.{index + 1}")
        iface = _CountingInterface(node, "wl0")
        iface.deliver = lambda packet: None
        medium.attach(iface)
        stations.append(iface)
    addressee = stations[17]
    _CountingInterface.touched = []
    medium.transmit(
        gateway,
        Packet(
            proto="udp", src=Endpoint(GATEWAY_IP, 5000),
            dst=Endpoint("10.0.1.18", 7000), payload_size=700,
        ),
    )
    sim.run()
    assert medium.frames_sent == 1
    assert {id(iface) for iface in _CountingInterface.touched} == {
        id(addressee), id(monitor)
    }
