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

The package imports none of its modules, so importing one (the pure
:mod:`~repro.core.daemon`, say) does not load the simulator.
"""
