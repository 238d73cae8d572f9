"""The paper's contribution: a transparent, power-aware scheduling proxy.

Components map one-to-one onto the paper's §3:

* :mod:`~repro.core.schedule` — schedule messages, burst slots,
  scheduler rendezvous points (SRPs);
* :mod:`~repro.core.bandwidth_model` — the linear send-cost model built
  from microbenchmarks (§3.2.2 "Bandwidth Constraints");
* :mod:`~repro.core.queues` — per-client packet queues;
* :mod:`~repro.core.planner` — the one slot planner, shared with the
  live proxy: admission, burst order, fixed (100/500 ms) and variable
  burst intervals, schedule reuse;
* :mod:`~repro.core.scheduler` — the planner's simulator driver;
* :mod:`~repro.core.static_schedule` — the static TDMA comparison
  policy (§4.3, Figure 7);
* :mod:`~repro.core.burster` — burst transmission with the
  last-packet TOS marking protocol (§3.2.2 "Packet Marking");
* :mod:`~repro.core.proxy` — the transparent proxy itself: packet
  interception, split TCP connections, address spoofing (Figure 3);
* :mod:`~repro.core.daemon` — the client daemon as one sans-IO state
  machine that transitions the WNIC around rendezvous points;
* :mod:`~repro.core.client` — that daemon's simulator driver;
* :mod:`~repro.core.delay_comp` — delay-compensation algorithms
  (§3.3);
* :mod:`~repro.core.policy` — the slot-admission policy family
  (paper-dynamic, channel-aware, joint queue+channel threshold) and
  the discrete (queue, channel) model the offline DP optimum in
  :mod:`repro.energy.optimal` is defined over.

The names below resolve on first use, so importing one module (the
pure :mod:`~repro.core.daemon`, say) does not load the simulator.
"""

from __future__ import annotations

import importlib
from typing import Any

_HOMES = {
    name: module
    for module, names in {
        "bandwidth_model": ("LinearCostModel",),
        "client": ("PowerAwareClient",),
        "delay_comp": ("AdaptiveCompensator", "FixedClockCompensator"),
        "policy": (
            "POLICY_NAMES", "ChannelAwarePolicy", "ClientView",
            "JointThresholdPolicy", "PaperDynamicPolicy", "PolicyInstance",
            "PolicyOutcome", "SchedulingPolicy", "execute_grants",
            "make_policy", "random_instance", "rollout",
        ),
        "proxy": ("TransparentProxy",),
        "queues": ("ClientQueue", "QueueEntry"),
        "schedule": ("SCHEDULE_PORT", "BurstSlot", "Schedule"),
        "scheduler": ("DynamicScheduler",),
        "static_schedule": ("StaticScheduler",),
    }.items()
    for name in names
}

__all__ = sorted(_HOMES)


def __getattr__(name: str) -> Any:
    if name not in _HOMES:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
    value = getattr(importlib.import_module(f"repro.core.{_HOMES[name]}"), name)
    globals()[name] = value
    return value
