"""Unit tests for the transmit wake guard."""

import pytest

from repro.core.client import SimDriver
from repro.core.daemon import ClientMachine
from repro.core.txguard import TransmitWakeGuard
from repro.net.addr import Endpoint
from repro.net.udp import UdpSocket
from repro.net.tcp import TcpConnection, TcpListener
from repro.wnic import Wnic

from tests.net.helpers import wire_pair


def test_stray_udp_send_wakes_then_resleeps():
    sim, a, b, _link = wire_pair()
    wnic = Wnic(sim, "a", start_asleep=True)
    guard = TransmitWakeGuard(a, wnic)
    guard.daemon_sleeping = True
    socket = UdpSocket(a, 5000)
    sim.call_at(1.0, lambda: socket.sendto(64, Endpoint("10.0.0.2", 7000)))
    sim.run(until=0.9)
    assert not wnic.is_awake
    sim.run(until=1.001)
    assert wnic.is_awake  # woke for the transmission
    sim.run(until=1.1)
    assert not wnic.is_awake  # back asleep shortly after
    assert guard.tx_wakes == 1


def test_syn_holds_card_awake_through_handshake():
    sim, a, b, _link = wire_pair()
    TcpListener(b, 80, lambda conn: None)
    wnic = Wnic(sim, "a", start_asleep=True)
    guard = TransmitWakeGuard(a, wnic)
    guard.daemon_sleeping = True
    sim.call_at(1.0, lambda: TcpConnection.connect(a, Endpoint("10.0.0.2", 80)))
    sim.run(until=1.0001)  # before the SYN even reaches the wire's far end
    assert wnic.is_awake
    assert guard.busy_connections()
    sim.run(until=2.0)
    # handshake done; guard no longer busy (daemon would re-sleep at its
    # next sleep phase — the guard itself leaves the card up)
    assert not guard.busy_connections()


class Sleeper(ClientMachine):
    """A client machine that only runs the sleep rule, on node ``a``."""

    def __init__(self, node, wnic, wake_at):
        super().__init__(node.ip, node.obs)
        node.add_interface("wl0")
        SimDriver(self, node, wnic)
        self.wake_at = wake_at
        self.woke = []

    def on_start(self, now):
        self.sleep_until(now, self.wake_at, self.woke.append)


def test_sleep_until_defers_while_handshaking():
    sim, a, b, _link = wire_pair()
    TcpListener(b, 80, lambda conn: None)
    wnic = Wnic(sim, "a", start_asleep=False)
    TcpConnection.connect(a, Endpoint("10.0.0.2", 80))
    sleeper = Sleeper(a, wnic, wake_at=0.5)
    sim.run(until=1.0)
    assert sleeper.woke == [pytest.approx(0.5)]
    # The card went to sleep only after the handshake completed.
    sleep_transitions = [
        (t, s) for t, s in wnic.transitions if s.value == "sleep"
    ]
    assert sleep_transitions
    assert sleep_transitions[0][0] > 0.001  # not immediately


def test_sleep_until_short_gap_stays_awake():
    sim, a, b, _link = wire_pair()
    wnic = Wnic(sim, "a")
    sleeper = Sleeper(a, wnic, wake_at=0.002)
    sim.run(until=0.01)
    assert sleeper.woke == [pytest.approx(0.002)]
    assert wnic.wake_count == 0  # never cycled


def test_awake_card_ignores_tx():
    sim, a, b, _link = wire_pair()
    wnic = Wnic(sim, "a", start_asleep=False)
    guard = TransmitWakeGuard(a, wnic)
    UdpSocket(a, 5000).sendto(10, Endpoint("10.0.0.2", 7000))
    assert guard.tx_wakes == 0
