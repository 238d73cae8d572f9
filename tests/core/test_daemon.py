"""Unit tests for the sans-IO client machine and what its drivers pay."""

import heapq
import itertools
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.core.client import PowerAwareClient
from repro.core.daemon import BURST, ScheduleMachine
from repro.core.delay_comp import AdaptiveCompensator
from repro.core.schedule import SCHEDULE_PORT, BurstSlot, Schedule
from repro.net.addr import BROADCAST_IP, Endpoint
from repro.net.node import Node
from repro.net.packet import Packet
from repro.obs import NULL_RECORDER
from repro.sim import Simulator
from repro.wnic import Wnic

CLIENT = "10.0.1.1"


class FakeDriver:
    """Carries out a machine's outputs on a hand-advanced clock."""

    def __init__(self, machine):
        machine.driver = self
        self.machine = machine
        self.now = 0.0
        self.card = []
        self._timers = []
        self._order = itertools.count()

    def wake(self):
        self.card.append(("wake", self.now))

    def sleep(self):
        self.card.append(("sleep", self.now))

    def arm(self, delay, token):
        heapq.heappush(self._timers, (self.now + delay, next(self._order), token))

    def busy(self):
        return False

    def advance(self, until):
        """Fire every timer due by ``until``, in order, then stop there."""
        while self._timers and self._timers[0][0] <= until:
            self.now, _, token = heapq.heappop(self._timers)
            self.machine.on_timer(token, self.now)
        self.now = until


def schedule(seq, srp, rendezvous=None, interval=0.1):
    slots = () if rendezvous is None else (
        BurstSlot(CLIENT, rendezvous, 0.005, 1000),
    )
    return Schedule(seq=seq, srp=srp, next_srp=srp + interval, slots=slots)


def test_machine_imports_neither_asyncio_nor_the_simulator():
    probe = (
        "import sys, repro.core.daemon; print(sorted(m for m in sys.modules"
        " if m == 'asyncio' or m == 'repro.sim' or m.startswith('repro.sim.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env=env,
    )
    assert done.stdout.strip() == "[]"


def test_second_schedule_mid_burst_supersedes_a_lost_mark():
    machine = ScheduleMachine(CLIENT, NULL_RECORDER, AdaptiveCompensator())
    driver = FakeDriver(machine)
    machine.on_start(0.0)
    machine.on_schedule(schedule(0, 0.0, rendezvous=0.03), 0.0)
    driver.advance(0.03)
    machine.on_data(0.03)  # the burst's data, but its mark is lost
    driver.advance(0.05)
    machine.on_schedule(schedule(1, 0.05), 0.05)
    driver.advance(0.05)
    assert machine.state == BURST  # the first one is held...
    driver.advance(0.06)
    machine.on_schedule(schedule(2, 0.06), 0.06)
    driver.advance(0.06)
    # ...the second ends the burst, and the client follows it: asleep
    # until its successor is due.
    assert machine.marks_missed == 1
    assert machine.schedules_heard == 3
    assert driver.card[-1] == ("sleep", 0.06)
    wake_at = machine.compensator.next_schedule_wake(schedule(2, 0.06), 0.06)
    driver.advance(0.2)
    assert driver.card[-1] == ("wake", wake_at)


class ProbedCompensator(AdaptiveCompensator):
    """Notes the heap's push count where a schedule wait starts (the
    arrival prediction) and where the machine moves on after it (the
    next schedule-phase wake)."""

    def __init__(self, sim):
        super().__init__()
        self.sim = sim
        self.listens = []
        self.moves = []

    def predict_arrival(self, schedule, arrival):
        self.listens.append(self.sim._seq)
        return super().predict_arrival(schedule, arrival)

    def next_schedule_wake(self, schedule, arrival):
        self.moves.append(self.sim._seq)
        return super().next_schedule_wake(schedule, arrival)


def test_schedule_wait_won_by_the_schedule_costs_two_heap_pushes():
    """Its deadline timer and one same-instant reaction; a process
    waiting on ``AnyOf`` pays three (``Timeout``, waiter, ``AnyOf``)."""
    sim = Simulator()
    node = Node(sim, "client", CLIENT)
    iface = node.add_interface("wl0")
    compensator = ProbedCompensator(sim)
    PowerAwareClient(node, Wnic(sim, "client"), compensator)
    for seq, arrival in enumerate((0.01, 0.1105, 0.2107)):
        packet = Packet(
            "udp", Endpoint("10.0.2.254", SCHEDULE_PORT),
            Endpoint(BROADCAST_IP, SCHEDULE_PORT), payload_size=40,
            meta={"schedule": schedule(seq, arrival - 0.001)},
        )
        sim.call_at1(arrival, lambda p: node.on_receive(iface, p), packet)
    sim.run(until=0.25)
    # Waits for the second and third schedules, each won by the schedule.
    assert len(compensator.listens) == 2
    assert [
        move - listen
        for listen, move in zip(compensator.listens, compensator.moves[1:])
    ] == [2, 2]
