"""Wire-level chaos injection for the live runtime.

The simulator injects faults through :mod:`repro.faults`; the live
runtime reuses the *same* :class:`~repro.faults.plan.FaultPlan`
vocabulary, reinterpreted on the wall clock (seconds relative to
:meth:`ChaosShim.install`):

* ``loss_rate`` — iid loss of proxy→client control datagrams
  (schedules *and* marks), drawn from a seeded
  :class:`~repro.sim.random.RngStreams` stream so a chaos run replays
  exactly from ``(plan, seed)`` at the decision level (wall-clock
  timing still wobbles, which is the point of a live test);
* ``schedule_blackouts`` — windows in which only schedule datagrams
  die (the paper's lost-schedule degradation scenario);
* ``outages`` — windows in which *all* control datagrams die **and**
  the origin server is killed (restarted when the window closes) — the
  live analog of an AP outage;
* ``churn`` — client vanish/rejoin: the client's control socket closes
  (heartbeats stop, in-flight fetches abort) at ``leave_at`` and, with
  a ``rejoin_at``, comes back on a fresh control port.

The datagram filter installs on :attr:`AsyncProxy.control_filter`; the
time-driven actions run from :meth:`ChaosShim.drive`.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.runtime.client import AsyncPowerClient
from repro.runtime.origin import SpeedTestOrigin
from repro.runtime.proxy import KIND_SCHEDULE, AsyncProxy
from repro.sim.random import RngStreams

log = logging.getLogger("repro.runtime")


class ChaosShim:
    """Interprets a :class:`FaultPlan` against the live runtime."""

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = seed
        self._rng = RngStreams(seed).get("runtime.chaos")
        self._proxy: Optional[AsyncProxy] = None
        self._epoch: Optional[float] = None
        # -- counters ------------------------------------------------------
        self.dropped_random = 0
        self.dropped_blackout = 0
        self.dropped_outage = 0

    # -- datagram filter ---------------------------------------------------

    def install(self, proxy: AsyncProxy) -> None:
        """Attach the datagram filter and start the chaos clock."""
        if self._proxy is not None:
            raise ConfigurationError("chaos shim already installed")
        self._proxy = proxy
        self._epoch = asyncio.get_running_loop().time()
        proxy.control_filter = self._filter

    def uninstall(self) -> None:
        """Detach the filter (the proxy keeps running fault-free)."""
        if self._proxy is not None and self._proxy.control_filter is self._filter:
            self._proxy.control_filter = None
        self._proxy = None

    def elapsed(self) -> float:
        """Seconds since :meth:`install` (the plan's time axis)."""
        if self._epoch is None:
            raise ConfigurationError("chaos shim not installed")
        return asyncio.get_running_loop().time() - self._epoch

    def _filter(
        self, payload: bytes, addr: tuple[str, int], kind: str
    ) -> bool:
        now = self.elapsed()
        for window in self.plan.outages:
            if window.contains(now):
                self.dropped_outage += 1
                return False
        if kind == KIND_SCHEDULE:
            for window in self.plan.schedule_blackouts:
                if window.contains(now):
                    self.dropped_blackout += 1
                    return False
        if self.plan.loss_rate and self._rng.random() < self.plan.loss_rate:
            self.dropped_random += 1
            return False
        return True

    # -- time-driven actions ----------------------------------------------

    def actions(
        self,
        origin: Optional[SpeedTestOrigin] = None,
        clients: Sequence[AsyncPowerClient] = (),
    ) -> list[tuple[float, str, int]]:
        """The plan's (time, action, index) list, sorted by time.

        ``index`` points into ``clients`` for churn actions and into
        ``plan.outages`` for origin kill/restart pairs.
        """
        out: list[tuple[float, str, int]] = []
        if origin is not None:
            for i, window in enumerate(self.plan.outages):
                out.append((window.start, "origin-kill", i))
                out.append((window.end, "origin-restart", i))
        for i, churn in enumerate(self.plan.churn):
            if churn.client_index >= len(clients):
                raise ConfigurationError(
                    f"churn client_index {churn.client_index} out of range "
                    f"for {len(clients)} client(s)"
                )
            out.append((churn.leave_at, "client-vanish", i))
            if churn.rejoin_at is not None:
                out.append((churn.rejoin_at, "client-rejoin", i))
        out.sort()
        return out

    async def drive(
        self,
        origin: Optional[SpeedTestOrigin] = None,
        clients: Sequence[AsyncPowerClient] = (),
    ) -> None:
        """Fire the plan's origin-kill and client-vanish actions.

        Run this as a task alongside the workload; it returns once the
        last action has fired.
        """
        for at, action, index in self.actions(origin, clients):
            delay = at - self.elapsed()
            if delay > 0:
                await asyncio.sleep(delay)
            if action == "origin-kill" and origin is not None:
                origin.kill()
                log.info("chaos: origin killed at t=%.2fs", at)
            elif action == "origin-restart" and origin is not None:
                await origin.restart()
                log.info("chaos: origin restarted at t=%.2fs", at)
            elif action == "client-vanish":
                clients[self.plan.churn[index].client_index].stop()
                log.info("chaos: client vanished at t=%.2fs", at)
            elif action == "client-rejoin":
                await clients[self.plan.churn[index].client_index].start()
                log.info("chaos: client rejoined at t=%.2fs", at)

    @property
    def dropped_total(self) -> int:
        """Control datagrams the shim has eaten so far."""
        return self.dropped_random + self.dropped_blackout + self.dropped_outage
