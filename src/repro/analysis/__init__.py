"""Simulation-invariant static analysis (``python -m repro analyze``).

An AST-based lint engine enforcing the conventions that make the
reproduction replay byte-identically from ``(plan, seed)``: all
randomness through named :class:`~repro.sim.random.RngStreams`, no
wall-clock or ambient entropy in sim code, time/size literals through
:mod:`repro.units`, and failures through the :mod:`repro.errors`
taxonomy. See DESIGN.md "Determinism invariants" for the rule list.
"""

from repro.analysis.cfg import (
    CFG,
    BasicBlock,
    build_cfg,
    iter_function_defs,
)
from repro.analysis.dataflow import (
    DataflowResult,
    ForwardAnalysis,
    run_forward,
)
from repro.analysis.engine import (
    PARSE_RULE,
    UNUSED_SUPPRESSION_RULE,
    analyze_file,
    analyze_paths,
    analyze_source,
    module_path_for,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.output import (
    RENDERERS,
    render_sarif,
    render_statistics,
)
from repro.analysis.registry import RULES, ModuleContext, Rule

__all__ = [
    "BasicBlock",
    "CFG",
    "DataflowResult",
    "Finding",
    "ForwardAnalysis",
    "ModuleContext",
    "PARSE_RULE",
    "RENDERERS",
    "RULES",
    "Rule",
    "Severity",
    "UNUSED_SUPPRESSION_RULE",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "build_cfg",
    "iter_function_defs",
    "module_path_for",
    "render_sarif",
    "render_statistics",
    "run_forward",
]
