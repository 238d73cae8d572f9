"""The simulator's driver of the slot planner (paper §3.2.1).

At every SRP the proxy hands the :class:`~repro.core.planner.SlotPlanner`
each client's queued bytes and the time the proxy's passive uplink tap
(``last_uplink``) last heard it. The planner owns the rest of the
decision (silence, admission, burst order, layout, schedule reuse,
``seq``) and records every ``scheduler.*`` instrument. What stays here
is timing and I/O: the schedule broadcast, the waits, and each slot's
burst through the proxy's burster.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.core.bandwidth_model import LinearCostModel
from repro.core.planner import Backlog, SlotPlanner
from repro.core.policy import SchedulingPolicy
from repro.core.schedule import Schedule
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
            has been silent this long (None disables reclamation).
        policy: slot-admission policy (see :mod:`repro.core.policy`).
            Defaults to the paper's dynamic policy, which admits every
            backlogged client.
        """
        self.proxy = proxy
        self.planner = SlotPlanner(
            cost_model, interval_s, policy=policy,
            reuse_schedules=reuse_schedules,
            silence_timeout_s=silence_timeout_s, obs=proxy.obs,
        )
        self.schedules_sent = 0

    def build_schedule(self, srp: float) -> Schedule:
        """Snapshot the queues and plan the schedule for one interval."""
        proxy = self.proxy
        backlogs = [
            Backlog(ip, *proxy.scheduling_backlog_by_kind(ip))
            for ip, _queue in proxy.iter_queues()
        ]
        return self.planner.plan(
            srp, backlogs, proxy.last_uplink, proxy.channel_state
        ).schedule

    def forget_client(self, client_ip: str) -> None:
        """Drop per-client scheduling state after a shard handoff.

        Reserved for :class:`repro.campus.handoff.HandoffCoordinator`
        (analysis rule CAM001).
        """
        self.planner.forget(client_ip)

    # -- execution ------------------------------------------------------------

    def run(self) -> Iterator[Event]:
        """The proxy-side scheduling process (a simulation generator)."""
        sim = self.proxy.sim
        while True:
            schedule = self.build_schedule(sim.now)
            self.proxy.broadcast_schedule(schedule)
            self.schedules_sent += 1
            self.proxy.obs.span(
                schedule.srp, schedule.next_srp, "interval", "proxy",
                seq=schedule.seq, slots=len(schedule.slots),
            )
            yield from self._execute_interval(schedule)
            if schedule.repeats_next:
                # Replay the same relative layout without a broadcast.
                shifted = self.planner.replay(schedule)
                self.proxy.obs.span(
                    shifted.srp, shifted.next_srp, "interval", "proxy",
                    seq=shifted.seq, slots=len(shifted.slots), reused=True,
                )
                yield from self._execute_interval(shifted)

    def _execute_interval(self, schedule: Schedule):
        sim = self.proxy.sim
        for slot in schedule.slots:
            if slot.rendezvous > sim.now:
                yield sim.timeout(slot.rendezvous - sim.now)
            if slot.client_ip not in self.proxy.client_ips:
                # The client roamed to another shard after this schedule
                # was built: release the slot instead of bursting into
                # the cell it just left.
                continue
            self.planner.slot_started(slot, sim.now)
            if self.proxy.obs.record_spans:
                self.proxy.obs.span(
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
            self.planner.slot_finished(slot, sent)
            self.proxy.finish_drained_splits(slot.client_ip)
        if schedule.next_srp > sim.now:
            yield sim.timeout(schedule.next_srp - sim.now)
