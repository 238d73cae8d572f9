"""The simulator's driver of the slot planner (paper §3.2.1).

At every SRP the proxy snapshots all client queues, hands the backlogged
ones to the :class:`~repro.core.planner.SlotPlanner` (which owns
admission, burst order, layout, schedule reuse and ``seq``), broadcasts
the schedule, and bursts each client in turn at its rendezvous point.
What stays here is what only the simulator sees: silence tracking from
the proxy's passive uplink signal, the per-client histograms, and slot
execution through the proxy's burster.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.core.bandwidth_model import LinearCostModel
from repro.core.planner import Backlog, SlotPlanner
from repro.core.policy import SchedulingPolicy
from repro.core.schedule import Schedule
from repro.errors import SchedulingError
from repro.obs.metrics import BYTES_BUCKETS, RATIO_BUCKETS, SECONDS_BUCKETS
from repro.sim.core import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.proxy import TransparentProxy


class DynamicScheduler:
    """Builds and executes per-interval schedules on the proxy."""

    def __init__(
        self,
        proxy: "TransparentProxy",
        cost_model: LinearCostModel,
        interval_s: Optional[float] = None,
        reuse_schedules: bool = False,
        silence_timeout_s: Optional[float] = None,
        policy: Optional[SchedulingPolicy] = None,
    ) -> None:
        """Args:
        proxy: owning proxy (supplies queues, burster and the socket).
        cost_model: calibrated linear send-cost model.
        interval_s: fixed burst interval; None selects the variable
            interval (see :mod:`repro.core.planner`).
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
        if silence_timeout_s is not None and silence_timeout_s <= 0:
            raise SchedulingError(
                f"silence_timeout_s must be positive: {silence_timeout_s!r}"
            )
        self.proxy = proxy
        self.planner = SlotPlanner(
            cost_model, interval_s, policy=policy,
            reuse_schedules=reuse_schedules,
        )
        self.silence_timeout_s = silence_timeout_s
        self.policy_grants = 0
        self.policy_defers = 0
        self.schedules_sent = 0
        self.schedules_reused = 0
        self.slots_reclaimed = 0
        self.slots_restored = 0
        self._silenced: set[str] = set()
        #: Per client, the ``scheduler.queue_bytes``,
        #: ``scheduler.slot_lateness_s`` and ``scheduler.slot_utilization``
        #: histogram handles, each resolved on first use (see
        #: Recorder.resolve_*).
        self._queue_bytes: dict[str, Any] = {}
        self._slot_lateness: dict[str, Any] = {}
        self._slot_utilization: dict[str, Any] = {}

    # -- schedule construction ------------------------------------------------

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
        """Snapshot the queues and plan the schedule for one interval."""
        self._update_silenced()
        proxy = self.proxy
        obs = proxy.obs
        # One backlog computation per client per interval, shared by the
        # observe stream and the snapshot: at 1k+ clients, recomputing
        # it dominated schedule construction.
        backlogs = []
        queue_bytes = self._queue_bytes
        for ip, _queue in proxy.iter_queues():
            udp_bytes, tcp_bytes = proxy.scheduling_backlog_by_kind(ip)
            backlog = udp_bytes + tcp_bytes
            histogram = queue_bytes.get(ip)
            if histogram is None:
                histogram = queue_bytes[ip] = obs.resolve_histogram(
                    "scheduler.queue_bytes", buckets=BYTES_BUCKETS, client=ip,
                )
            histogram.observe(backlog)
            if backlog > 0 and ip not in self._silenced:
                backlogs.append(
                    Backlog(ip, udp_bytes, tcp_bytes, proxy.channel_state(ip))
                )
        plan = self.planner.plan(srp, backlogs)
        granted = len(plan.schedule.slots)
        self.policy_grants += granted
        self.policy_defers += len(plan.deferred)
        # The paper's policy admits everyone, so legacy configurations
        # record nothing here.
        if self.planner.policy.name != "dynamic":
            now = proxy.sim.now
            for view in plan.deferred:
                obs.event(
                    now, "scheduler.policy_defer",
                    client=view.key, backlog=view.backlog,
                    deferred=view.deferred,
                    channel="good" if view.channel_good else "bad",
                )
                obs.inc("scheduler.policy_defers", client=view.key)
            if granted:
                obs.inc("scheduler.policy_grants", granted)
        return plan.schedule

    def forget_client(self, client_ip: str) -> None:
        """Drop per-client scheduling state after a shard handoff.

        Reserved for :class:`repro.campus.handoff.HandoffCoordinator`
        (analysis rule CAM001).
        """
        self._silenced.discard(client_ip)
        self.planner.forget(client_ip)

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
            self.proxy.broadcast_schedule(schedule)
            self.schedules_sent += 1
            self.proxy.obs.span(
                schedule.srp, schedule.next_srp, "interval", "proxy",
                seq=schedule.seq, slots=len(schedule.slots),
            )
            planned_srp = schedule.next_srp
            yield from self._execute_interval(schedule)
            if schedule.repeats_next:
                # Replay the same relative layout without a broadcast.
                self.schedules_reused += 1
                shifted = self.planner.replay(schedule)
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
