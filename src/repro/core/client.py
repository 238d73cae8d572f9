"""The power-aware client daemon in the simulator (paper §3.1, §3.3).

The daemon's decisions live in :mod:`repro.core.daemon`; this module
runs them on a simulated node's wireless card.
"""

from __future__ import annotations

from typing import Optional

from repro.core.daemon import (
    DEFAULT_FALLBACK_AFTER_MISSES,
    ClientMachine,
    ScheduleMachine,
)
from repro.core.delay_comp import AdaptiveCompensator, DelayCompensator
from repro.core.schedule import SCHEDULE_PORT
from repro.core.txguard import TransmitWakeGuard
from repro.errors import SchedulingError
from repro.net.node import Interface, Node
from repro.net.packet import Packet
from repro.net.udp import UdpSocket
from repro.obs.recorder import Recorder
from repro.wnic.states import Wnic


class SimDriver:
    """Runs a client machine on a simulated node's wireless card.

    A tap ahead of every other feeds the machine the node's data frames
    and marks, and timers are heap entries at ``now + delay``. ``wake``
    and ``sleep`` move the card and tell the :class:`TransmitWakeGuard`,
    whose handshakes ``busy`` reports, whether the daemon is asleep.
    """

    def __init__(
        self, machine: ClientMachine, node: Node, wnic: Wnic,
        enforce_sleep_drops: bool = True,
    ) -> None:
        if "wl0" not in node.interfaces:
            raise SchedulingError(f"{node.name} has no interface 'wl0'")
        self.machine = machine
        self.node = node
        self.sim = node.sim
        self.wnic = wnic
        if enforce_sleep_drops:
            node.interfaces["wl0"].rx_gate = wnic.can_receive
        node.taps.insert(0, self._watch_frames)
        self.guard = TransmitWakeGuard(node, wnic)
        machine.driver = self
        self.sim.call_later(0.0, lambda: machine.on_start(self.sim.now))

    def wake(self) -> None:
        self.guard.daemon_sleeping = False
        self.wnic.wake()

    def sleep(self) -> None:
        self.guard.daemon_sleeping = True
        self.wnic.sleep()

    def arm(self, delay: float, token: int) -> None:
        self.sim.call_later1(delay, self._fire, token)

    def busy(self) -> bool:
        return self.guard.busy_connections()

    def _fire(self, token: int) -> None:
        self.machine.on_timer(token, self.sim.now)

    def _watch_frames(self, packet: Packet, iface: Interface) -> bool:
        """Pass-through tap reporting this client's data and marks."""
        if packet.dst.ip != self.node.ip:
            return False
        if packet.payload_size > 0:
            self.machine.on_data(self.sim.now)
        if packet.tos_marked:
            self.machine.on_mark(self.sim.now)
        return False


class PowerAwareClient(ScheduleMachine):
    """The client daemon on a simulated node's WNIC."""

    def __init__(
        self,
        node: Node,
        wnic: Wnic,
        compensator: Optional[DelayCompensator] = None,
        enforce_sleep_drops: bool = True,
        fallback_after_misses: int = DEFAULT_FALLBACK_AFTER_MISSES,
        obs: Optional[Recorder] = None,
    ) -> None:
        super().__init__(
            node.ip, obs if obs is not None else node.obs,
            compensator or AdaptiveCompensator(), fallback_after_misses,
        )
        self.sim = node.sim
        SimDriver(self, node, wnic, enforce_sleep_drops)
        UdpSocket(node, SCHEDULE_PORT, on_receive=self._on_schedule_packet)

    def _on_schedule_packet(self, packet: Packet) -> None:
        self.on_schedule(packet.meta["schedule"], self.sim.now)
