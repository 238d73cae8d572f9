"""The slot planner (paper §3.2.1), shared by the simulator and the
live proxy.

At every scheduler rendezvous point (SRP) a driver snapshots its client
queues and hands the planner the clients that may get a burst slot; the
planner returns that interval's schedule. It owns every schedule
decision: policy admission (:mod:`repro.core.policy`) with the deferral
counters it reads, the burst-order rotation, the slot layout priced by
the linear send-cost model, schedule reuse, and ``seq``.

* **fixed interval** (100 ms / 500 ms in the paper): each client gets a
  share of the interval proportional to its burst cost; data that does
  not fit waits for the next interval. An interval that cannot hold a
  slot gap for every admitted client serves the clients that fit,
  longest-deferred first, and defers the rest.
* **variable interval**: sized so every client can drain its queue,
  clamped to [``MIN_INTERVAL_S``, ``MAX_INTERVAL_S``]; when the maximum
  clamps it, allotments degrade to proportional shares.
* **schedule reuse** (paper §5 future work): when two consecutive
  schedules would have the same relative layout, the first is marked
  ``repeats_next`` and :meth:`SlotPlanner.replay` gives the repeat.

The planner imports neither the simulator nor asyncio. Its drivers are
:class:`~repro.core.scheduler.DynamicScheduler` and
:class:`~repro.runtime.proxy.AsyncProxy`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.policy import ClientView, PaperDynamicPolicy, SchedulingPolicy
from repro.core.schedule import (
    SCHEDULE_HEADER_BYTES,
    SLOT_ENTRY_BYTES,
    BurstSlot,
    Schedule,
)
from repro.errors import SchedulingError
from repro.net.packet import MSS
from repro.units import ms, us

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.bandwidth_model import LinearCostModel

#: Gap between consecutive burst slots.
SLOT_GAP_S = us(500)
#: Time reserved between the schedule broadcast and the first slot.
SCHEDULE_GUARD_S = ms(1.5)
#: Bounds of the variable interval.
MIN_INTERVAL_S = ms(100)
MAX_INTERVAL_S = ms(500)


@dataclass(frozen=True, slots=True)
class Backlog:
    """One client's queued bytes at an SRP, as its driver counted them."""

    key: str  #: client IP in the simulator, client id in the live runtime
    udp_bytes: int
    tcp_bytes: int
    channel_good: bool = True


@dataclass(frozen=True, slots=True)
class Plan:
    """One interval's schedule and the clients it held back."""

    schedule: Schedule
    #: The view of each client left without a slot, its ``deferred``
    #: count including this interval, in snapshot order.
    deferred: tuple[ClientView, ...]


def client_burst_cost(
    cost_model: "LinearCostModel", udp_bytes: int, tcp_bytes: int
) -> float:
    """Channel time of one client's burst, ACK echoes included.

    TCP data on the half-duplex cell is answered by uplink ACKs — with
    delayed ACKs, about one per two segments — which occupy the same
    medium the next slot needs. The paper's microbenchmark calibration
    measured real transfers and thus absorbed this; we account for it
    explicitly.
    """
    cost = cost_model.burst_cost(udp_bytes)
    if tcp_bytes > 0:
        cost += cost_model.burst_cost(tcp_bytes)
        segments = -(-tcp_bytes // MSS)
        acks = -(-segments // 2)  # delayed ACKs: one per two segments
        cost += acks * cost_model.packet_cost(0)
    return cost


def _lead(cost_model: "LinearCostModel", slots: int) -> float:
    """Time from the SRP to the first slot: the schedule's own airtime
    plus the guard."""
    return (
        cost_model.packet_cost(SCHEDULE_HEADER_BYTES + SLOT_ENTRY_BYTES * slots)
        + SCHEDULE_GUARD_S
    )


def fits(cost_model: "LinearCostModel", interval_s: float, slots: int) -> bool:
    """Whether ``interval_s`` holds the schedule, its guard and ``slots``
    slot gaps with burst time to spare."""
    return interval_s - _lead(cost_model, slots) - SLOT_GAP_S * max(1, slots) > 0


class SlotPlanner:
    """Plans each interval's schedule from a backlog snapshot."""

    def __init__(
        self,
        cost_model: "LinearCostModel",
        interval_s: Optional[float] = None,
        policy: Optional[SchedulingPolicy] = None,
        reuse_schedules: bool = False,
    ) -> None:
        """Args:
        cost_model: the linear send-cost model that prices each burst.
        interval_s: fixed burst interval; None selects the variable
            interval bounded by ``MIN_INTERVAL_S``/``MAX_INTERVAL_S``.
        policy: slot-admission policy (see :mod:`repro.core.policy`);
            defaults to the paper's dynamic policy, which admits every
            backlogged client.
        reuse_schedules: enable the §5 schedule-reuse extension (fixed
            intervals only).
        """
        if interval_s is not None and interval_s <= 0:
            raise SchedulingError(f"interval must be positive: {interval_s!r}")
        #: The longest interval a schedule may cover.
        self._ceiling_s = MAX_INTERVAL_S if interval_s is None else interval_s
        if not fits(cost_model, self._ceiling_s, 1):
            raise SchedulingError(
                f"interval {self._ceiling_s}s cannot fit the schedule overhead"
            )
        self.cost_model = cost_model
        self.interval_s = interval_s
        self.policy: SchedulingPolicy = (
            policy if policy is not None else PaperDynamicPolicy()
        )
        self.reuse_schedules = reuse_schedules
        self.seq = 0
        #: Consecutive intervals each backlogged client has gone without
        #: a slot (cleared when it gets one or drains).
        self._deferred: dict[str, int] = {}
        self._last_layout: Optional[tuple] = None

    def plan(self, srp: float, backlogs: Sequence[Backlog]) -> Plan:
        """The schedule for the interval that starts at ``srp``.

        ``backlogs`` holds the clients that may get a slot (backlogged
        and not silenced) in the driver's stable order. The policy sees
        one :class:`ClientView` per client; held-back clients keep their
        bytes queued and age their deferral counter.
        """
        views = [
            ClientView(
                key=backlog.key,
                backlog=backlog.udp_bytes + backlog.tcp_bytes,
                channel_good=backlog.channel_good,
                deferred=self._deferred.get(backlog.key, 0),
            )
            for backlog in backlogs
        ]
        admitted = set(self.policy.admit(views))
        pending = [backlog for backlog in backlogs if backlog.key in admitted]
        # Rotate the burst order every interval so no client always goes
        # first. Schedule reuse needs a *stable* order, so reuse
        # disables it.
        if pending and not self.reuse_schedules:
            rotation = self.seq % len(pending)
            pending = pending[rotation:] + pending[:rotation]
        if not fits(self.cost_model, self._ceiling_s, len(pending)):
            pending = self._longest_deferred(pending)
        served = {backlog.key for backlog in pending}
        deferred = tuple(
            replace(view, deferred=view.deferred + 1)
            for view in views
            if view.key not in served
        )
        self._deferred = {view.key: view.deferred for view in deferred}

        lead = _lead(self.cost_model, len(pending))
        if self.interval_s is None:
            slots, interval = self._variable_layout(srp, lead, pending)
        else:
            slots, interval = self._fixed_layout(
                srp, lead, pending, self.interval_s
            )
        repeats_next = False
        if self.reuse_schedules and self.interval_s is not None:
            layout = _relative_layout(srp, slots)
            repeats_next = bool(slots) and layout == self._last_layout
            self._last_layout = layout
        schedule = Schedule(
            seq=self.seq,
            srp=srp,
            next_srp=srp + interval,
            slots=tuple(slots),
            repeats_next=repeats_next,
        )
        self.seq += 1
        return Plan(schedule, deferred)

    def replay(self, schedule: Schedule) -> Schedule:
        """The unbroadcast repeat of a ``repeats_next`` schedule: the
        same offsets one interval later. Allotments are re-derived from
        slot durations so the replay serves whatever is queued *now*."""
        self.seq += 1
        self._last_layout = None  # force a fresh broadcast next
        delta = schedule.interval
        return Schedule(
            seq=schedule.seq + 1,
            srp=schedule.srp + delta,
            next_srp=schedule.next_srp + delta,
            slots=tuple(
                BurstSlot(
                    client_ip=slot.client_ip,
                    rendezvous=slot.rendezvous + delta,
                    duration=slot.duration,
                    bytes_allotted=max(
                        slot.bytes_allotted,
                        self.cost_model.bytes_for(slot.duration),
                    ),
                )
                for slot in schedule.slots
            ),
        )

    def forget(self, key: str) -> None:
        """Drop a departed client's deferral count. The cached reuse
        layout is invalidated so a repeated schedule can never re-grant
        the departed slot."""
        self._deferred.pop(key, None)
        self._last_layout = None

    def _longest_deferred(self, pending: list[Backlog]) -> list[Backlog]:
        """The clients whose slots fit the ceiling: longest-deferred
        first, burst order among ties. The constructor guarantees that
        one slot fits."""
        count = len(pending) - 1
        while not fits(self.cost_model, self._ceiling_s, count):
            count -= 1
        by_age = sorted(
            pending, key=lambda backlog: -self._deferred.get(backlog.key, 0)
        )
        return by_age[:count]

    def _variable_layout(
        self, srp: float, lead: float, pending: list[Backlog]
    ) -> tuple[list[BurstSlot], float]:
        durations = {
            backlog.key: client_burst_cost(
                self.cost_model, backlog.udp_bytes, backlog.tcp_bytes
            )
            for backlog in pending
        }
        total = lead + sum(durations.values()) + SLOT_GAP_S * len(pending)
        # Overrun slack: if the bursts run past the advertised next SRP,
        # the late schedule broadcast defeats every client's arrival
        # anchor. Mirrors the fixed layout's 0.9 window factor.
        total *= 1.1
        interval = min(MAX_INTERVAL_S, max(MIN_INTERVAL_S, total))
        if total > interval:
            # Clamped at the maximum: degrade to proportional shares.
            return self._fixed_layout(srp, lead, pending, interval)
        slots = []
        cursor = srp + lead
        for backlog in pending:
            duration = durations[backlog.key]
            slots.append(
                BurstSlot(
                    client_ip=backlog.key,
                    rendezvous=cursor,
                    duration=duration,
                    bytes_allotted=backlog.udp_bytes + backlog.tcp_bytes,
                )
            )
            cursor += duration + SLOT_GAP_S
        return slots, interval

    def _fixed_layout(
        self, srp: float, lead: float, pending: list[Backlog], interval: float
    ) -> tuple[list[BurstSlot], float]:
        # Positive: plan() keeps only the slots that fit the interval.
        window = interval - lead - SLOT_GAP_S * max(1, len(pending))
        # Safety factor: random backoff and AP forwarding make real
        # airtime exceed the estimate now and then; a slot that spills
        # past the SRP delays every later client's marked packet
        # (§3.2.2's "subsequent clients will not receive their data as
        # scheduled").
        window *= 0.9
        costs = {
            backlog.key: client_burst_cost(
                self.cost_model, backlog.udp_bytes, backlog.tcp_bytes
            )
            for backlog in pending
        }
        total_cost = sum(costs.values())
        slots = []
        cursor = srp + lead
        for backlog in pending:
            nbytes = backlog.udp_bytes + backlog.tcp_bytes
            full_cost = costs[backlog.key]
            share = window * full_cost / total_cost
            if full_cost <= share:
                allotted, duration = nbytes, full_cost
            else:
                # Scale the allotment down to what fits the share,
                # keeping this client's udp/tcp cost ratio.
                inflation = full_cost / max(
                    self.cost_model.burst_cost(nbytes), 1e-12
                )
                allotted = min(
                    nbytes, self.cost_model.bytes_for(share / inflation)
                )
                duration = full_cost * (allotted / nbytes) if nbytes else 0.0
            slots.append(
                BurstSlot(
                    client_ip=backlog.key,
                    rendezvous=cursor,
                    duration=duration,
                    bytes_allotted=allotted,
                )
            )
            cursor += duration + SLOT_GAP_S
        return slots, interval


def _relative_layout(srp: float, slots: Sequence[BurstSlot]) -> tuple:
    """Layout signature used to detect repeatable schedules.

    Clients only need the *offsets* to be stable, so durations and
    rendezvous points are quantized to 5 ms buckets: ordinary VBR
    wobble between intervals does not defeat reuse, while a client
    joining/leaving or a real shift in shares does.
    """
    return tuple(
        (
            slot.client_ip,
            round((slot.rendezvous - srp) / 0.005),
            round(slot.duration / 0.005),
        )
        for slot in slots
    )
