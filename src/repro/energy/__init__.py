"""Postmortem energy analysis.

Reproduces the paper's §3.1/§4.1 methodology: a simulator reads the
monitoring station's wireless capture after the experiment and
computes, per client, (1) time in high- and low-power mode, (2) bytes
transmitted and received, (3) packets lost or dropped, and (4) total
WNIC energy — compared against a *naive* client that keeps its card in
high-power mode throughout, and against the closed-form theoretical
optimum of §4.3.
"""

from repro.energy.analyzer import EnergyAnalyzer
from repro.energy.model import EnergyBreakdown, client_breakdowns
from repro.energy.optimal import optimal_energy_saved_pct
from repro.energy.report import ClientReport, ExperimentSummary, summarize

__all__ = [
    "ClientReport",
    "EnergyAnalyzer",
    "EnergyBreakdown",
    "ExperimentSummary",
    "client_breakdowns",
    "optimal_energy_saved_pct",
    "summarize",
]
