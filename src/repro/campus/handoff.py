"""Shard-to-shard client migration (the campus handoff protocol).

All cross-shard state movement funnels through
:class:`HandoffCoordinator` — analysis rule CAM001 rejects direct calls
to the migration primitives (``release_client`` / ``adopt_client`` /
``forget_client``) anywhere else, so the shard-membership invariant
(every client belongs to exactly one proxy shard at every instant) is
maintained in exactly one place.

One handoff is four synchronous steps plus a timed radio gap:

1. the old cell's medium detaches the client's radio and marks the
   address *departed* (in-flight downlink frames die there as handoff
   misses instead of bouncing off the gateway);
2. the old proxy shard releases the client: UDP backlog comes out,
   TCP splits are aborted (they do not survive a handoff), and the old
   scheduler forgets its slot bookkeeping — the slot-release half of
   the SRP protocol;
3. the new shard adopts the client — queue membership re-registers it
   with the new cell's SRP loop on the next schedule build — and the
   campus hub reroutes the client's address to the new cell's uplink;
4. after ``latency_s`` of radio silence the client's interface attaches
   to the new cell's medium. Frames it misses during the gap, and any
   uplink it attempts, are charged to the handoff (the energy model
   sees the misses like any others).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.campus.topology import HandoffSpec
from repro.errors import ConfigurationError
from repro.faults.counters import FaultCounters
from repro.obs.recorder import NULL_RECORDER, Recorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scheduler import DynamicScheduler
    from repro.net.access_point import AccessPoint
    from repro.net.medium import WirelessMedium
    from repro.net.node import Interface, Node
    from repro.net.packet import Packet
    from repro.net.sniffer import MonitoringStation
    from repro.sim.core import Simulator

    from repro.core.proxy import TransparentProxy


@dataclass
class Cell:
    """One campus cell: its radio domain and its proxy shard."""

    index: int
    label: str
    medium: "WirelessMedium"
    ap: "AccessPoint"
    monitor: "MonitoringStation"
    proxy: "TransparentProxy"
    #: Installed by the runner once schedulers exist (scenario build
    #: wires topology only).
    scheduler: Optional["DynamicScheduler"] = None


class _DetachedRadio:
    """The channel a client sees mid-handoff: nothing.

    Uplink transmissions during the radio gap are swallowed (and
    counted) instead of raising — the client daemons legitimately keep
    trying to send feedback while they re-associate.
    """

    def __init__(self, coordinator: "HandoffCoordinator") -> None:
        self._coordinator = coordinator

    def transmit(self, src_iface: "Interface", packet: "Packet") -> None:
        self._coordinator.gap_tx_drops += 1
        self._coordinator.counters.incr("campus.gap_tx_drop")


class HandoffCoordinator:
    """Migrates roaming clients between cells atomically."""

    def __init__(
        self,
        sim: "Simulator",
        cells: list[Cell],
        hub: "Node",
        uplinks: list["Interface"],
        client_ifaces: dict[str, "Interface"],
        spec: HandoffSpec,
        obs: Optional[Recorder] = None,
        counters: Optional[FaultCounters] = None,
    ) -> None:
        if len(cells) < 2:
            raise ConfigurationError(
                "a handoff coordinator needs at least two cells"
            )
        if len(uplinks) != len(cells):
            raise ConfigurationError(
                f"need one hub uplink per cell: "
                f"{len(uplinks)} uplinks, {len(cells)} cells"
            )
        self.sim = sim
        self.cells = cells
        self.hub = hub
        self.uplinks = uplinks
        self.client_ifaces = client_ifaces
        self.spec = spec
        self.obs = obs if obs is not None else NULL_RECORDER
        self.counters = counters if counters is not None else FaultCounters()
        self._gap = _DetachedRadio(self)
        #: Supersession guard: a second roam during the radio gap
        #: invalidates the first gap's pending attach.
        self._generation: dict[str, int] = {}
        self.handoffs = 0
        self.bytes_transferred = 0
        self.bytes_dropped = 0
        self.gap_tx_drops = 0

    def handoff(self, client_ip: str, old_index: int, new_index: int) -> None:
        """Move one client's radio, queue state, and schedule membership."""
        if old_index == new_index:
            raise ConfigurationError(
                f"handoff to the same cell: {client_ip} in cell {old_index}"
            )
        old = self.cells[old_index]
        new = self.cells[new_index]
        iface = self.client_ifaces[client_ip]
        now = self.sim.now

        # Step 1: silence the radio. A roam during a still-open gap
        # finds the interface already detached.
        if iface.channel is old.medium:
            old.medium.detach(iface)
        old.medium.departed.add(client_ip)
        iface.channel = self._gap

        # Step 2: release the old shard's state (slot release + SRP
        # deregistration happen on the old scheduler's next interval).
        entries, dropped = old.proxy.release_client(client_ip)
        if old.scheduler is not None:
            old.scheduler.forget_client(client_ip)

        # Step 3: migrate the backlog and re-register with the new shard.
        if self.spec.policy == "transfer":
            moved = entries
        else:  # drain: the new cell starts clean
            dropped += sum(entry.nbytes for entry in entries)
            moved = []
        transferred = sum(entry.nbytes for entry in moved)
        new.proxy.adopt_client(client_ip, moved)
        self.hub.add_route(client_ip, self.uplinks[new_index])

        self.handoffs += 1
        self.bytes_transferred += transferred
        self.bytes_dropped += dropped
        self.counters.incr("campus.handoff")
        self.obs.event(
            now, "campus.handoff",
            client=client_ip,
            from_cell=old.label, to_cell=new.label,
            transferred=transferred, dropped=dropped,
        )
        self.obs.counter(
            "campus.handoffs", client=client_ip, to_cell=new.label
        ).inc()
        self.obs.span(
            now, now + self.spec.latency_s, "handoff", f"client {client_ip}",
            from_cell=old.label, to_cell=new.label,
        )

        # Step 4: re-attach after the radio gap (unless superseded).
        generation = self._generation.get(client_ip, 0) + 1
        self._generation[client_ip] = generation

        def complete() -> None:
            if self._generation[client_ip] != generation:
                return
            iface.channel = None
            new.medium.attach(iface)

        self.sim.call_later(self.spec.latency_s, complete)
