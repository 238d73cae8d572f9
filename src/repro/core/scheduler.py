"""The dynamic scheduling policy (paper §3.2.1).

At every SRP the proxy snapshots all client queues, builds a schedule
(variable-sized or fixed-sized), broadcasts it, and bursts each client
in turn at its rendezvous point:

* **fixed interval** (100 ms / 500 ms in the paper): each client gets a
  share of the interval *proportional to its queue depth*; data that
  does not fit waits for the next interval;
* **variable interval**: the schedule is sized so every client can
  drain its queue, clamped to [min_interval, max_interval]; when the
  maximum clamps it, allotments degrade to proportional shares.

The schedule-reuse extension (paper §5 future work) can be enabled with
``reuse_schedules=True``: when two consecutive schedules would have the
same relative layout, the proxy broadcasts the first with
``repeats_next=True``, skips the next broadcast entirely, and replays
the same layout — saving every client one schedule wake-up.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.core.bandwidth_model import LinearCostModel
from repro.core.policy import ClientView, PaperDynamicPolicy, SchedulingPolicy
from repro.core.schedule import (
    SCHEDULE_HEADER_BYTES,
    SLOT_ENTRY_BYTES,
    BurstSlot,
    Schedule,
)
from repro.errors import SchedulingError
from repro.obs.metrics import BYTES_BUCKETS, RATIO_BUCKETS, SECONDS_BUCKETS
from repro.sim.core import Event
from repro.units import ms, us

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.proxy import TransparentProxy

#: Gap between consecutive burst slots.
DEFAULT_SLOT_GAP_S = us(500)
#: Time reserved between the schedule broadcast and the first slot.
DEFAULT_SCHEDULE_GUARD_S = ms(1.5)


class DynamicScheduler:
    """Builds and executes per-interval schedules on the proxy."""

    def __init__(
        self,
        proxy: "TransparentProxy",
        cost_model: LinearCostModel,
        interval_s: Optional[float] = None,
        min_interval_s: float = ms(100),
        max_interval_s: float = ms(500),
        slot_gap_s: float = DEFAULT_SLOT_GAP_S,
        schedule_guard_s: float = DEFAULT_SCHEDULE_GUARD_S,
        reuse_schedules: bool = False,
        silence_timeout_s: Optional[float] = None,
        policy: Optional[SchedulingPolicy] = None,
    ) -> None:
        """Args:
        proxy: owning proxy (supplies queues, burster and the socket).
        cost_model: calibrated linear send-cost model.
        interval_s: fixed burst interval; None selects the variable
            policy bounded by ``min_interval_s``/``max_interval_s``.
        reuse_schedules: enable the §5 schedule-reuse extension.
        silence_timeout_s: reclaim the slot of a client whose uplink
            has been silent this long (None disables reclamation). A
            client that never transmitted anything is never judged
            silent — there is no baseline to decay from.
        policy: slot-admission policy (see :mod:`repro.core.policy`).
            Defaults to the paper's dynamic policy, which admits every
            backlogged client — byte-identical to the pre-policy
            scheduler.
        """
        if interval_s is not None and interval_s <= 0:
            raise SchedulingError(f"interval must be positive: {interval_s!r}")
        if min_interval_s <= 0 or max_interval_s < min_interval_s:
            raise SchedulingError(
                f"bad interval bounds: [{min_interval_s}, {max_interval_s}]"
            )
        if silence_timeout_s is not None and silence_timeout_s <= 0:
            raise SchedulingError(
                f"silence_timeout_s must be positive: {silence_timeout_s!r}"
            )
        self.proxy = proxy
        self.cost_model = cost_model
        self.interval_s = interval_s
        self.min_interval_s = min_interval_s
        self.max_interval_s = max_interval_s
        self.slot_gap_s = slot_gap_s
        self.schedule_guard_s = schedule_guard_s
        self.reuse_schedules = reuse_schedules
        self.silence_timeout_s = silence_timeout_s
        self.policy: SchedulingPolicy = (
            policy if policy is not None else PaperDynamicPolicy()
        )
        self.policy_grants = 0
        self.policy_defers = 0
        #: Consecutive intervals each backlogged client has been held
        #: back by the policy (cleared on admission or on drain).
        self._deferred: dict[str, int] = {}
        self.schedules_sent = 0
        self.schedules_reused = 0
        self.slots_reclaimed = 0
        self.slots_restored = 0
        self.seq = 0
        self._last_layout: Optional[tuple] = None
        self._silenced: set[str] = set()
        #: Per client, the ``scheduler.queue_bytes``,
        #: ``scheduler.slot_lateness_s`` and ``scheduler.slot_utilization``
        #: histogram handles, each resolved on first use (see
        #: Recorder.resolve_*).
        self._queue_bytes: dict[str, Any] = {}
        self._slot_lateness: dict[str, Any] = {}
        self._slot_utilization: dict[str, Any] = {}

    @property
    def is_variable(self) -> bool:
        """True when running the variable-interval policy."""
        return self.interval_s is None

    # -- schedule construction ------------------------------------------------

    def client_burst_cost(self, udp_bytes: int, tcp_bytes: int) -> float:
        """Channel time of one client's burst, ACK echoes included.

        TCP data on the half-duplex cell is answered by uplink ACKs —
        with delayed ACKs, about one per two segments — which occupy
        the same medium the next slot needs. The paper's microbenchmark
        calibration measured real transfers and thus absorbed this; we
        account for it explicitly.
        """
        cost = self.cost_model.burst_cost(udp_bytes)
        if tcp_bytes > 0:
            from repro.net.packet import MSS

            cost += self.cost_model.burst_cost(tcp_bytes)
            segments = -(-tcp_bytes // MSS)
            acks = -(-segments // 2)  # delayed ACKs: one per two segments
            cost += acks * self.cost_model.packet_cost(0)
        return cost

    def _update_silenced(self) -> None:
        """Track which clients' uplinks went quiet (and came back).

        The proxy bridges every uplink packet, so ``proxy.last_uplink``
        is a passive liveness signal: a client whose radio died (or
        that left the cell) stops producing TCP ACKs and feedback
        reports. Its queue keeps its data, but its burst slot is
        reclaimed for live clients until it is heard again.
        """
        if self.silence_timeout_s is None:
            return
        now = self.proxy.sim.now
        for ip, last_heard in self.proxy.last_uplink.items():
            silent = (now - last_heard) > self.silence_timeout_s
            if silent and ip not in self._silenced:
                self._silenced.add(ip)
                self.slots_reclaimed += 1
                self.proxy.obs.event(
                    now, "scheduler.reclaim", client=ip,
                    silent_s=now - last_heard,
                )
                self.proxy.obs.inc("scheduler.slots_reclaimed", client=ip)
            elif not silent and ip in self._silenced:
                self._silenced.discard(ip)
                self.slots_restored += 1
                self.proxy.obs.event(now, "scheduler.restore", client=ip)
                self.proxy.obs.inc("scheduler.slots_restored", client=ip)

    def build_schedule(self, srp: float) -> Schedule:
        """Snapshot the queues and construct the schedule for one interval."""
        self._update_silenced()
        obs = self.proxy.obs
        # One backlog computation per client per interval: the observe
        # stream and the pending filter share it (this loop used to
        # compute each client's backlog three times, which at 1k+
        # clients dominated schedule construction).
        pending = []
        queue_bytes = self._queue_bytes
        for ip, _queue in self.proxy.iter_queues():
            udp_bytes, tcp_bytes = self.proxy.scheduling_backlog_by_kind(ip)
            backlog = udp_bytes + tcp_bytes
            histogram = queue_bytes.get(ip)
            if histogram is None:
                histogram = queue_bytes[ip] = obs.resolve_histogram(
                    "scheduler.queue_bytes", buckets=BYTES_BUCKETS, client=ip,
                )
            histogram.observe(backlog)
            if backlog > 0 and ip not in self._silenced:
                pending.append((ip, udp_bytes, tcp_bytes))
        pending = self._admit(pending)
        # Rotate the burst order every interval so no client always goes
        # first (the paper's example schedules reorder clients freely).
        # Schedule reuse needs a *stable* order, so reuse disables it.
        if pending and not self.reuse_schedules:
            rotation = self.seq % len(pending)
            pending = pending[rotation:] + pending[:rotation]

        schedule_cost = self.cost_model.packet_cost(
            SCHEDULE_HEADER_BYTES + SLOT_ENTRY_BYTES * len(pending)
        )
        lead = schedule_cost + self.schedule_guard_s
        if self.is_variable:
            slots, interval = self._variable_layout(srp, lead, pending)
        else:
            slots, interval = self._fixed_layout(srp, lead, pending)
        return Schedule(
            seq=self.seq,
            srp=srp,
            next_srp=srp + interval,
            slots=tuple(slots),
        )

    def forget_client(self, client_ip: str) -> None:
        """Drop per-client scheduling state after a shard handoff.

        Reserved for :class:`repro.campus.handoff.HandoffCoordinator`
        (analysis rule CAM001). The cached reuse layout is invalidated
        so a repeated schedule can never re-grant the departed slot.
        """
        self._silenced.discard(client_ip)
        self._deferred.pop(client_ip, None)
        self._last_layout = None

    def _admit(
        self, pending: list[tuple[str, int, int]]
    ) -> list[tuple[str, int, int]]:
        """Apply the slot-admission policy, preserving ``pending`` order.

        The policy sees one :class:`ClientView` per backlogged client
        (channel state via the proxy's observability hook, deferral age
        from the scheduler's own bookkeeping) and returns the admitted
        keys; held-back clients keep their bytes queued and age their
        deferral counter. The default dynamic policy admits everyone,
        so the filter — and all its observability — is a no-op on
        legacy configurations.
        """
        if not pending:
            self._deferred = {}
            return pending
        views = [
            ClientView(
                key=ip,
                backlog=udp_b + tcp_b,
                channel_good=self.proxy.channel_state(ip),
                deferred=self._deferred.get(ip, 0),
            )
            for ip, udp_b, tcp_b in pending
        ]
        admitted_keys = set(self.policy.admit(views))
        admitted = [entry for entry in pending if entry[0] in admitted_keys]
        deferred: dict[str, int] = {}
        chatty = self.policy.name != "dynamic"
        now = self.proxy.sim.now
        for view in views:
            if view.key in admitted_keys:
                continue
            deferred[view.key] = view.deferred + 1
            self.policy_defers += 1
            if chatty:
                self.proxy.obs.event(
                    now, "scheduler.policy_defer",
                    client=view.key, backlog=view.backlog,
                    deferred=view.deferred + 1,
                    channel="good" if view.channel_good else "bad",
                )
                self.proxy.obs.inc(
                    "scheduler.policy_defers", client=view.key,
                )
        self._deferred = deferred
        self.policy_grants += len(admitted)
        if chatty and admitted:
            self.proxy.obs.inc("scheduler.policy_grants", len(admitted))
        return admitted

    def _variable_layout(self, srp, lead, pending):
        durations = {
            ip: self.client_burst_cost(udp_b, tcp_b)
            for ip, udp_b, tcp_b in pending
        }
        total = (
            lead
            + sum(durations.values())
            + self.slot_gap_s * len(pending)
        )
        # Overrun slack: if the bursts run past the advertised next SRP,
        # the late schedule broadcast defeats every client's arrival
        # anchor. Mirrors the fixed layout's 0.9 window factor.
        total *= 1.1
        interval = min(self.max_interval_s, max(self.min_interval_s, total))
        if total > interval:
            # Clamped at the maximum: degrade to proportional shares.
            return self._fixed_layout(srp, lead, pending, interval=interval)
        slots = []
        cursor = srp + lead
        for ip, udp_b, tcp_b in pending:
            slots.append(
                BurstSlot(
                    client_ip=ip,
                    rendezvous=cursor,
                    duration=durations[ip],
                    bytes_allotted=udp_b + tcp_b,
                )
            )
            cursor += durations[ip] + self.slot_gap_s
        return slots, interval

    def _fixed_layout(self, srp, lead, pending, interval=None):
        interval = interval if interval is not None else self.interval_s
        window = interval - lead - self.slot_gap_s * max(1, len(pending))
        # Safety factor: random backoff and AP forwarding make real
        # airtime exceed the estimate now and then; a slot that spills
        # past the SRP delays every later client's marked packet
        # (§3.2.2's "subsequent clients will not receive their data as
        # scheduled").
        window *= 0.9
        if window <= 0:
            raise SchedulingError(
                f"interval {interval}s cannot fit the schedule overhead"
            )
        costs = {
            ip: self.client_burst_cost(udp_b, tcp_b)
            for ip, udp_b, tcp_b in pending
        }
        total_cost = sum(costs.values())
        slots = []
        cursor = srp + lead
        for ip, udp_b, tcp_b in pending:
            nbytes = udp_b + tcp_b
            full_cost = costs[ip]
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
                    client_ip=ip,
                    rendezvous=cursor,
                    duration=duration,
                    bytes_allotted=allotted,
                )
            )
            cursor += duration + self.slot_gap_s
        return slots, interval

    # -- execution ------------------------------------------------------------

    def run(self) -> Iterator[Event]:
        """The proxy-side scheduling process (a simulation generator)."""
        sim = self.proxy.sim
        planned_srp: Optional[float] = None
        while True:
            srp = sim.now
            if planned_srp is not None:
                self.proxy.obs.observe(
                    "scheduler.srp_lateness_s",
                    max(0.0, srp - planned_srp),
                    buckets=SECONDS_BUCKETS,
                )
            schedule = self.build_schedule(srp)
            repeat = False
            if self.reuse_schedules and not self.is_variable:
                layout = self._relative_layout(schedule)
                if layout == self._last_layout and schedule.slots:
                    schedule = Schedule(
                        seq=schedule.seq,
                        srp=schedule.srp,
                        next_srp=schedule.next_srp,
                        slots=schedule.slots,
                        repeats_next=True,
                    )
                    repeat = True
                self._last_layout = layout
            self.proxy.broadcast_schedule(schedule)
            self.schedules_sent += 1
            self.seq += 1
            self.proxy.obs.span(
                schedule.srp, schedule.next_srp, "interval", "proxy",
                seq=schedule.seq, slots=len(schedule.slots),
            )
            planned_srp = schedule.next_srp
            yield from self._execute_interval(schedule)
            if repeat:
                # Replay the same relative layout without a broadcast.
                self.schedules_reused += 1
                self.seq += 1
                shifted = self._shift_schedule(schedule, schedule.interval)
                self._last_layout = None  # force a fresh broadcast next
                self.proxy.obs.inc("scheduler.schedules_reused")
                self.proxy.obs.span(
                    shifted.srp, shifted.next_srp, "interval", "proxy",
                    seq=shifted.seq, slots=len(shifted.slots), reused=True,
                )
                planned_srp = shifted.next_srp
                yield from self._execute_interval(shifted)

    def _execute_interval(self, schedule: Schedule):
        sim = self.proxy.sim
        obs = self.proxy.obs
        for slot in schedule.slots:
            if slot.rendezvous > sim.now:
                yield sim.timeout(slot.rendezvous - sim.now)
            if slot.client_ip not in self.proxy.client_ips:
                # The client roamed to another shard after this schedule
                # was built: release the slot instead of bursting into
                # the cell it just left.
                continue
            client = slot.client_ip
            lateness = self._slot_lateness.get(client)
            if lateness is None:
                lateness = self._slot_lateness[client] = obs.resolve_histogram(
                    "scheduler.slot_lateness_s", buckets=SECONDS_BUCKETS,
                    client=client,
                )
            lateness.observe(max(0.0, sim.now - slot.rendezvous))
            obs.span(
                slot.rendezvous, slot.rendezvous + slot.duration,
                "slot", f"client {slot.client_ip}",
                seq=schedule.seq, bytes_allotted=slot.bytes_allotted,
            )
            queue = self.proxy.queue_for(slot.client_ip)
            # Only kick when recovery is truly stuck: no progress for
            # well over one interval (ordinary ACK clocking pauses for
            # one interval between bursts by design).
            self.proxy.kick_stalled(
                slot.client_ip, stall_threshold_s=1.5 * schedule.interval
            )
            sent = self.proxy.burster.burst(queue, slot)
            if slot.bytes_allotted > 0:
                utilization = self._slot_utilization.get(client)
                if utilization is None:
                    utilization = self._slot_utilization[client] = (
                        obs.resolve_histogram(
                            "scheduler.slot_utilization",
                            buckets=RATIO_BUCKETS, client=client,
                        )
                    )
                utilization.observe(min(1.0, sent / slot.bytes_allotted))
            self.proxy.finish_drained_splits(slot.client_ip)
        if schedule.next_srp > sim.now:
            yield sim.timeout(schedule.next_srp - sim.now)

    @staticmethod
    def _relative_layout(schedule: Schedule) -> tuple:
        """Layout signature used to detect repeatable schedules.

        Clients only need the *offsets* to be stable, so durations and
        rendezvous points are quantized to 5 ms buckets: ordinary VBR
        wobble between intervals does not defeat reuse, while a client
        joining/leaving or a real shift in shares does.
        """
        return tuple(
            (
                slot.client_ip,
                round((slot.rendezvous - schedule.srp) / 0.005),
                round(slot.duration / 0.005),
            )
            for slot in schedule.slots
        )

    def _shift_schedule(self, schedule: Schedule, delta: float) -> Schedule:
        """The implicit repeated schedule: same offsets one interval
        later; allotments are re-derived from slot durations so the
        replay serves whatever is queued *now*."""
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
