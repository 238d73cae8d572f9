"""The live client driver on a fake clock, with no sockets.

:class:`AsyncPowerClient` runs the simulator's client machine, so the
paper's §3.3 behaviour holds live: a schedule heard mid-burst waits for
the mark, a missed schedule keeps the card awake, repeated misses fall
back to always-listen until a schedule resyncs the client, and the
burst wake comes from the delay compensator. The tests swap the loop
clock for a hand-advanced one and feed control datagrams straight to
the client (a data read stands for what :meth:`fetch` reports).
"""

import heapq
import itertools

import pytest

import repro.runtime.client as live
from repro.core.daemon import BURST, FALLBACK, RECOVER
from repro.core.delay_comp import AdaptiveCompensator
from repro.core.schedule import BurstSlot, Schedule
from repro.runtime.demo import estimated_savings_pct
from repro.runtime.wire import encode_mark, encode_schedule
from repro.wnic.power import WAVELAN_2_4GHZ
from repro.wnic.states import Wnic, WnicState

PROXY = ("127.0.0.1", 9)
#: The proxy's loop clock is not the client's: only offsets matter.
PROXY_EPOCH = 5000.0


class FakeHandle:
    cancelled = False

    def cancel(self):
        self.cancelled = True


class FakeClock:
    """Stands in for :class:`LoopClock`: ``now`` moves only when told."""

    def __init__(self):
        self.now = 0.0
        self._timers = []
        self._order = itertools.count()

    def call_later(self, delay, fn, token):
        handle = FakeHandle()
        heapq.heappush(
            self._timers, (self.now + delay, next(self._order), handle, fn, token)
        )
        return handle

    def advance(self, until):
        """Fire the timers due by ``until`` in order, then stop there."""
        while self._timers and self._timers[0][0] <= until:
            at, _, handle, fn, token = heapq.heappop(self._timers)
            if not handle.cancelled:
                self.now = at
                fn(token)
        self.now = until


@pytest.fixture
def client(monkeypatch):
    monkeypatch.setattr(live, "LoopClock", FakeClock)
    client = live.AsyncPowerClient("c0")
    client.on_start(client.clock.now)
    return client


def schedule(seq, slot_offset=None):
    srp = PROXY_EPOCH + 0.1 * seq
    slots = () if slot_offset is None else (
        BurstSlot("c0", srp + slot_offset, 0.01, 5000),
    )
    return Schedule(seq=seq, srp=srp, next_srp=srp + 0.1, slots=slots)


def hear(client, at, sched):
    client.clock.advance(at)
    client._on_datagram(encode_schedule(sched), PROXY)
    client.clock.advance(at)


def mark(client, at, seq):
    client.clock.advance(at)
    client._on_datagram(encode_mark("c0", seq), PROXY)
    client.clock.advance(at)


def transitions(client):
    return [(at, state.value) for at, state in client.wnic.transitions]


def test_schedule_heard_mid_burst_is_held_until_the_mark(client):
    first, second = schedule(0, slot_offset=0.03), schedule(1, slot_offset=0.03)
    hear(client, 0.01, first)  # late: the burst wait runs to 0.104
    client.clock.advance(0.035)
    assert client.state == BURST and client.wnic.is_awake
    client.on_data(0.035)
    hear(client, 0.1, second)
    assert client.schedules_heard == 2
    assert client.state == BURST and client.wnic.is_awake  # held
    mark(client, 0.102, seq=0)
    assert client.bursts_received == 1 and client.marks_missed == 0
    # Only now does the client act on the held schedule: asleep until
    # its burst.
    assert transitions(client)[-1] == (0.102, "sleep")
    wake_at = client.compensator.burst_wake(second, 0.1, second.slots[0])
    client.clock.advance(0.2)
    assert (wake_at, "idle") in transitions(client)


def test_no_schedule_within_the_grace_window_counts_a_miss(client):
    hear(client, 0.0, schedule(0))
    client.clock.advance(0.111)
    assert client.missed_schedules == 0
    client.clock.advance(0.113)  # predicted 0.1, grace 12 ms
    assert client.missed_schedules == 1
    assert client.state == RECOVER and client.wnic.is_awake


def test_fallback_keeps_the_card_awake_until_a_schedule_resyncs(client):
    hear(client, 0.0, schedule(0))
    client.clock.advance(0.5)
    assert client.missed_schedules == client.fallback_after_misses == 3
    assert client.fallbacks == 1 and client.in_fallback
    assert client.state == FALLBACK
    awake_since = transitions(client)[-1]
    client.clock.advance(3.0)
    assert transitions(client)[-1] == awake_since  # never slept
    assert client.missed_schedules == 3
    hear(client, 3.0, schedule(30))
    assert client.resyncs == 1 and not client.in_fallback
    assert transitions(client)[-1] == (3.0, "sleep")
    assert client.miss_recovery_s == pytest.approx(3.0 - 0.112)


class LateCompensator(AdaptiveCompensator):
    """Wakes for a burst 50 ms after the schedule, whatever its slot."""

    def burst_wake(self, schedule, arrival, slot):
        return arrival + 0.05


def test_burst_wake_comes_from_the_compensator(client):
    client.compensator = LateCompensator()
    # A wake at arrival + (rendezvous - srp) - early would come at
    # 0.004 s, too soon to sleep at all.
    hear(client, 0.0, schedule(0, slot_offset=0.01))
    assert transitions(client)[-1] == (0.0, "sleep")
    client.clock.advance(0.06)
    assert (0.05, "idle") in transitions(client)
    assert client.state == BURST


def test_demo_savings_is_the_energy_model_on_the_wnic_log():
    clock = FakeClock()
    wnic = Wnic(clock, "c0")
    for at, move in ((1.0, wnic.sleep), (3.0, wnic.wake), (4.0, wnic.sleep),
                     (9.0, wnic.wake)):
        clock.advance(at)
        move()
    assert wnic.state is WnicState.IDLE
    power = WAVELAN_2_4GHZ
    # Awake over [0, 1), [3, 4) and [9, 10): 3 s idle, 7 s asleep, two
    # wake-ups; an always-awake card idles all 10 s.
    energy = 3.0 * power.idle_w + 7.0 * power.sleep_w + 2 * power.wake_penalty_j
    expected = 100.0 * (1.0 - energy / (10.0 * power.idle_w))
    assert estimated_savings_pct(wnic, 10.0) == pytest.approx(expected)
    # Bit for bit what two separate aware and naive pricings gave.
    assert estimated_savings_pct(wnic, 10.0) == 60.566520090978
    assert estimated_savings_pct(wnic, 0.0) == 0.0
