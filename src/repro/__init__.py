"""repro — reproduction of "Dynamic, Power-Aware Scheduling for Mobile
Clients Using a Transparent Proxy" (Gundlach et al., ICPP 2004).

The package implements the paper's transparent, power-aware burst-
scheduling proxy together with every substrate its evaluation depends
on: a deterministic discrete-event simulator, a network model (wired and
wireless links, access point, UDP and a simplified TCP), a WNIC power
model, multimedia/web/ftp workload generators, a postmortem energy
analyzer, and the full experiment harness for every table and figure in
the paper. A secondary :mod:`repro.runtime` package demonstrates the same
proxy mechanism over real asyncio sockets.

Quickstart (``examples/quickstart.py`` runs the trailer's full 119 s)::

    from repro.experiments.runner import run_experiment, video_only

    config = video_only(
        bitrates_kbps=[56] * 10, burst_interval_s=0.5, duration_s=5.0, seed=1,
    )
    result = run_experiment(config)
    for report in result.clients:
        print(report.name, f"{report.energy_saved_pct:.1f}% saved")
"""

from repro._version import __version__

__all__ = ["__version__"]
