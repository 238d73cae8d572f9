"""A live asyncio implementation of the transparent proxy.

The discrete-event simulator (:mod:`repro.core`) carries the paper's
evaluation; this package demonstrates that the same design runs over
real sockets. Because a userspace process on localhost cannot spoof
addresses or set IP TOS bits the way the paper's kernel bridge could,
two documented substitutions apply (see DESIGN.md):

* clients dial the proxy explicitly and name their target in a one-line
  header (the kernel-bridge interception is replaced by a SOCKS-style
  connect), and
* the end-of-burst mark is an out-of-band UDP datagram to the client's
  control port instead of a TOS bit.

Everything else — per-client queues, the schedule message with SRP and
rendezvous points (the simulator's own
:class:`~repro.core.schedule.Schedule`), burst transmission, the client
daemon (:class:`~repro.core.daemon.ScheduleMachine`) — matches the
simulated proxy.
"""

from repro.runtime.proxy import AsyncProxy, AsyncProxyConfig
from repro.runtime.client import AsyncPowerClient
from repro.runtime.chaos import ChaosShim
from repro.runtime.loadtest import LoadTestConfig, LoadTestReport, run_loadtest
from repro.runtime.origin import SpeedTestOrigin
from repro.runtime.supervisor import TaskSupervisor

__all__ = [
    "AsyncPowerClient",
    "AsyncProxy",
    "AsyncProxyConfig",
    "ChaosShim",
    "LoadTestConfig",
    "LoadTestReport",
    "SpeedTestOrigin",
    "TaskSupervisor",
    "run_loadtest",
]
