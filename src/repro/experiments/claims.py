"""The paper's claims: one table the benchmarks assert and the report renders.

Every results file that EXPERIMENTS.md renders has one :class:`Entry`
here. An entry names the driver that writes its rows, its section title,
the paper's statement, the columns shown, the notes that explain the
rows, and its claims. A :class:`Claim` reads one value from the rows and
holds it against two checks:

* ``bound`` — what ``pytest benchmarks/`` asserts, so a regression that
  breaks it fails the benchmark;
* ``paper`` — the paper's own value. Where the repo misses it, the claim
  carries a one-line ``deviation`` reason. A deviation that starts to
  match the paper fails ``tests/experiments/test_claims.py``, so it is
  promoted instead of going stale.

A value read off one of the paper's graphs (Fig. 4's 77 %) is an
``approx`` check: it counts as met when the claim's bound, a band
around it, holds.

Claims read rows the way they are saved (:func:`normalize` round-trips
them through JSON), so a driver's int keys and a results file's string
keys look the same. This module imports only the standard library.
"""

from __future__ import annotations

import importlib
import json
import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

Row = dict[str, Any]
#: An entry's rows indexed by its key columns.
Index = dict[Any, Row]

# -- the paper's values -------------------------------------------------------

#: Fig. 4, 500 ms: energy saved per stream.
FIGURE4_500MS = {"56K": 77.0, "256K": 66.0, "512K": 53.0}
#: Fig. 4, 500 ms: energy saved by the mixed-fidelity patterns.
FIGURE4_MIXED = 69.0
#: §4.3: the closed-form optimum per stream.
OPTIMUM = {"56K": 90.0, "256K": 83.0, "512K": 77.0}
#: §4.3: "savings within 10-15 % of optimal are common" (upper end).
OPTIMUM_GAP = 15.0
#: §4.2, text: ten web clients save 70-80 %.
TCP_ONLY = (70.0, 80.0)
#: Fig. 5: savings range from just over 50 % to just under 90 %.
FIGURE5 = (50.0, 90.0)
#: Fig. 6: the early transition amount that wastes the least energy.
FIGURE6_BEST_EARLY_MS = 6
#: §4.3: packet loss stays under 2 %.
LOSS_PCT = 2.0
#: §4.3: dropping packets while asleep lengthened transfers by ~10 %.
DROP_SLOWDOWN = 0.10


# -- claim vocabulary ---------------------------------------------------------


def _num(value: Any) -> str:
    """A number for claim tables: floats to at most 2 decimals."""
    if isinstance(value, float) and math.isfinite(value):
        return f"{value:.2f}".rstrip("0").rstrip(".")
    return str(value)


def _key_text(key: Any) -> str:
    parts = key if isinstance(key, tuple) else (key,)
    return ",".join(f"{p:g}" if isinstance(p, float) else str(p) for p in parts)


@dataclass(frozen=True)
class Measure:
    """A value read from an entry's indexed rows, and the text naming it."""

    text: str
    read: Callable[[Index], Any]

    def __str__(self) -> str:
        return self.text


def cell(
    col: str, key: Any = (), scale: float = 1.0, shift: float = 0.0
) -> Measure:
    """Column ``col`` of the row keyed ``key``, as ``scale × x + shift``."""
    text = f"{col}[{_key_text(key)}]" if key != () else col
    if scale != 1.0:
        text = f"{_num(scale)} × {text}"
    if shift:
        text = f"{text} {'+' if shift > 0 else '−'} {_num(abs(shift))}"
    if scale == 1.0 and not shift:
        return Measure(text, lambda index: index[key][col])
    return Measure(text, lambda index: scale * index[key][col] + shift)


_OPS: dict[str, tuple[str, Callable[[Any, Any], bool]]] = {
    "<": ("<", operator.lt),
    "<=": ("≤", operator.le),
    ">": (">", operator.gt),
    ">=": ("≥", operator.ge),
    "==": ("=", operator.eq),
    "!=": ("≠", operator.ne),
}


@dataclass(frozen=True)
class Check:
    """``x <op> value``; ``value`` is a constant or a measure of the rows.

    ``near`` is ``|x − value| < other`` and ``between`` is
    ``value < x < other``. ``approx`` is a reading off a paper graph,
    met when the claim's bound holds.
    """

    op: str
    value: Any
    other: Any = None

    def resolve(self, index: Index) -> Any:
        if isinstance(self.value, Measure):
            return self.value.read(index)
        return self.value

    def holds(self, x: Any, index: Index) -> bool:
        value = self.resolve(index)
        if self.op == "near":
            return abs(x - value) < self.other
        if self.op == "between":
            return value < x < self.other
        return _OPS[self.op][1](x, value)

    def render(self, index: Index) -> str:
        value = _num(self.resolve(index))
        if self.op == "approx":
            return f"≈ {value}"
        if self.op == "near":
            return f"|x − {value}| < {_num(self.other)}"
        if self.op == "between":
            return f"{value} < x < {_num(self.other)}"
        return f"x {_OPS[self.op][0]} {value}"


lt, le, gt, ge, eq, ne, near, between, approx = (
    partial(Check, op)
    for op in ("<", "<=", ">", ">=", "==", "!=", "near", "between", "approx")
)


def both(check: Check) -> dict[str, Check]:
    """The check as both the bound and the paper's value."""
    return {"bound": check, "paper": check}


@dataclass(frozen=True)
class Claim:
    """One measured value, the bound the benchmark asserts on it, and the
    paper's value with the reason the repo misses it, if it does."""

    id: str
    measure: Measure
    bound: Optional[Check] = None
    paper: Optional[Check] = None
    deviation: Optional[str] = None

    @property
    def text(self) -> str:
        """The measure, plus what a relative check compares it with."""
        check = self.bound or self.paper
        if check is not None and isinstance(check.value, Measure):
            return f"{self.measure} {_OPS[check.op][0]} {check.value}"
        return str(self.measure)


@dataclass(frozen=True)
class Verdict:
    """A claim evaluated on one set of rows."""

    claim: Claim
    measured: Any
    bound: str
    paper: str
    #: False when the bound fails or the rows lack the value.
    bound_holds: bool
    #: None when the paper states no value (or the rows lack it).
    paper_holds: Optional[bool]
    #: False when the rows lack the measured value.
    found: bool = True

    @property
    def ok(self) -> bool:
        """The bound holds and any paper miss is the declared one."""
        if not self.bound_holds:
            return False
        return self.paper_holds is None or self.paper_holds == (
            self.claim.deviation is None
        )

    @property
    def text(self) -> str:
        if not self.found:
            return "**no data**"
        if not self.bound_holds:
            return "**fails bound**"
        if self.paper_holds is False:
            return "deviation" if self.claim.deviation else "**misses paper**"
        if self.paper_holds and self.claim.deviation:
            return "**meets paper: drop the deviation**"
        return "holds"


def _judge(claim: Claim, index: Index) -> Verdict:
    try:
        measured = claim.measure.read(index)
        bound = claim.bound.render(index) if claim.bound else "-"
        paper = claim.paper.render(index) if claim.paper else "-"
        bound_holds = claim.bound is None or claim.bound.holds(measured, index)
        paper_holds: Optional[bool] = None
        if claim.paper is not None:
            paper_holds = (
                bound_holds if claim.paper.op == "approx"
                else claim.paper.holds(measured, index)
            )
    except (KeyError, TypeError, ValueError):
        return Verdict(claim, None, "-", "-", False, None, found=False)
    return Verdict(claim, measured, bound, paper, bound_holds, paper_holds)


# -- entries ------------------------------------------------------------------


@dataclass(frozen=True)
class View:
    """One rendered table of an entry's rows (``where``: a column filter)."""

    columns: tuple[str, ...]
    caption: Optional[str] = None
    where: Optional[tuple[str, Any]] = None


@dataclass(frozen=True)
class Entry:
    """One results file: who writes it, how it renders, what it claims."""

    #: Results file stem: ``benchmarks/results/<name>.json``.
    name: str
    title: str
    views: tuple[View, ...]
    #: ``"module:function"`` taking ``seed``, ``quick`` and ``engine``;
    #: None when a benchmark under ``benchmarks/`` writes the rows.
    driver: Optional[str] = None
    #: CLI spelling, e.g. ``("figure", "4")`` for ``repro figure 4``.
    command: Optional[tuple[str, str]] = None
    #: The paper's statement (rendered as the section's "Paper:" line).
    paper: Optional[str] = None
    #: Notes rendered before and after the rows.
    intro: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    #: Columns whose values key a row for the claims.
    key: tuple[str, ...] = ()
    claims: tuple[Claim, ...] = ()

    def load_driver(self) -> Callable[..., Any]:
        """Import and return the driver function."""
        if self.driver is None:
            raise LookupError(f"{self.name} rows are written by a benchmark")
        module, _, attr = self.driver.partition(":")
        return getattr(importlib.import_module(module), attr)

    def index(self, rows: list[Row]) -> Index:
        """Rows keyed by :attr:`key` (a scalar for one key column)."""
        index: Index = {}
        for row in rows:
            key = tuple(row.get(col) for col in self.key)
            index[key[0] if len(key) == 1 else key] = row
        return index

    def evaluate(self, rows: Any) -> list[Verdict]:
        """Every claim of this entry, judged on ``rows``."""
        index = self.index(normalize(rows))
        return [_judge(claim, index) for claim in self.claims]


def normalize(rows: Any) -> list[Row]:
    """Rows as ``save_results`` writes them: a JSON round trip, as a list."""
    data = json.loads(json.dumps(rows, default=str))
    return [data] if isinstance(data, dict) else data


def _falls(col: str, keys: tuple, ids: tuple[str, ...]) -> list[Claim]:
    """``col`` falls from each key to the next, as the paper shows."""
    return [
        Claim(id, cell(col, high), **both(gt(cell(col, low))))
        for id, high, low in zip(ids, keys, keys[1:])
    ]


def _spread(side: str, key: Any) -> Measure:
    def read(index: Index) -> float:
        row = index[key]
        return row[f"{side}_max_saved_pct"] - row[f"{side}_min_saved_pct"]

    return Measure(f"{side} max − min saved[{_key_text(key)}]", read)


def _video_used(weight: int, rate: int) -> Measure:
    return Measure(
        f"video_energy_used_pct[{weight}][{rate}]",
        lambda index: index[weight]["video_energy_used_pct"][str(rate)],
    )


def _least_waste(index: Index) -> int:
    return min(index.values(), key=lambda row: row["total_waste_j"])["early_ms"]


def _static_win(index: Index) -> float:
    return max(
        index[stream]["static_avg_saved_pct"]
        - index[stream]["dynamic_avg_saved_pct"]
        for stream in ("256K", "512K")
    )


def _fig5_variance(pattern: str) -> Claim:
    lower = lt(_spread("udp", ("500ms", pattern)))
    known = pattern == "56K/TCP"
    return Claim(
        f"tcp-variance[500ms,{pattern}]", _spread("tcp", ("500ms", pattern)),
        bound=None if known else lower, paper=lower,
        deviation=_NO_ADAPTATION if known else None,
    )


_INTERVALS = ("100ms", "500ms", "variable")
_STREAMS = ("56K", "256K", "512K")
_FIG5_PATTERNS = ("56K/TCP", "256K/TCP", "512K/TCP", "All/TCP")
_FIG5_SATURATED = ("100ms", "512K/TCP")

_HANDSHAKE = (
    "each fresh TCP connection holds the card awake through its "
    "handshake, a cost the paper's kernel timing hid"
)
_SATURATED = (
    "seven 512K streams plus web traffic saturate the medium at 100 ms and "
    "the backlogged web clients stay awake; the paper's low end relied on "
    "RealServer adaptation freeing more bandwidth than our loss-triggered "
    "model does"
)
_WEB_OUTLIER = (
    "one web client stops loading pages about halfway through the run and "
    "its card stays awake from then on; the cause is not yet traced"
)
_NO_ADAPTATION = (
    "no 56K stream adapts either, so the video clients save as uniformly "
    "as the web clients or more"
)

ENTRIES: tuple[Entry, ...] = (
    Entry(
        "figure4", "Figure 4 — ten UDP video clients",
        (View(("interval", "pattern", "avg_saved_pct", "min_saved_pct",
               "max_saved_pct", "avg_loss_pct", "downshifts")),),
        driver="repro.experiments.figures:figure4", command=("figure", "4"),
        paper="at 500 ms, " + ", ".join(
            f"{stream} saves **{FIGURE4_500MS[stream]:g} %**"
            for stream in _STREAMS
        ) + f"; mixed patterns ≈ **{FIGURE4_MIXED:g} %**; 100 ms is worse "
        "than 500 ms everywhere (early-transition penalty); ten 512K "
        "streams exceed the cell and trigger RealServer adaptation.",
        notes=(
            "The variable policy tracks queue-drain time, so at these loads "
            "it sits at its 100 ms floor — matching the paper's note that "
            "its maximum is only reached when several streams have high "
            "bandwidth.",
        ),
        key=("interval", "pattern"),
        claims=(
            *(
                claim
                for interval in _INTERVALS
                for claim in _falls(
                    "avg_saved_pct",
                    tuple((interval, stream) for stream in _STREAMS),
                    (f"fidelity[{interval},56K>256K]",
                     f"fidelity[{interval},256K>512K]"),
                )
            ),
            *(
                Claim(f"500ms-beats-100ms[{pattern}]",
                      cell("avg_saved_pct", ("500ms", pattern)),
                      **both(gt(cell("avg_saved_pct", ("100ms", pattern)))))
                for pattern in (*_STREAMS, "56K_512K", "All")
            ),
            *(
                Claim(f"saved[500ms,{stream}]",
                      cell("avg_saved_pct", ("500ms", stream)),
                      bound=near(FIGURE4_500MS[stream], 10.0),
                      paper=approx(FIGURE4_500MS[stream]))
                for stream in _STREAMS
            ),
            Claim("saved[500ms,56K_512K]",
                  cell("avg_saved_pct", ("500ms", "56K_512K")),
                  bound=between(55.0, 85.0), paper=approx(FIGURE4_MIXED)),
            Claim("loss[500ms,56K]", cell("avg_loss_pct", ("500ms", "56K")),
                  bound=lt(2.0), paper=lt(LOSS_PCT)),
            Claim("adaptation[500ms,512K]",
                  cell("downshifts", ("500ms", "512K")), **both(gt(0))),
        ),
    ),
    Entry(
        "tcp_only", "§4.2 TCP-only (no paper graph)",
        (View(("interval", "avg_saved_pct", "min_saved_pct", "max_saved_pct",
               "avg_loss_pct", "pages_loaded")),),
        driver="repro.experiments.tables:tcp_only",
        command=("table", "tcp-only"),
        paper="ten web clients save {:g}-{:g} % at every interval "
        "(text only).".format(*TCP_ONLY),
        key=("interval",),
        claims=(
            *(
                Claim(f"saved[{interval}]", cell("avg_saved_pct", interval),
                      bound=between(55.0, 90.0), paper=between(*TCP_ONLY),
                      deviation=_HANDSHAKE)
                for interval in _INTERVALS
            ),
            *(
                Claim(f"pages[{interval}]", cell("pages_loaded", interval),
                      bound=gt(0))
                for interval in _INTERVALS
            ),
            *(
                Claim(f"loss[{interval}]", cell("avg_loss_pct", interval),
                      bound=lt(3.0))
                for interval in _INTERVALS
            ),
            Claim("saved-band[500ms]", cell("avg_saved_pct", "500ms"),
                  bound=between(65.0, 85.0), paper=between(*TCP_ONLY),
                  deviation=_HANDSHAKE),
        ),
    ),
    Entry(
        "figure5", "Figure 5 — seven video + three web clients",
        (View(("interval", "pattern", "udp_avg_saved_pct",
               "udp_min_saved_pct", "udp_max_saved_pct",
               "tcp_avg_saved_pct", "avg_loss_pct")),),
        driver="repro.experiments.figures:figure5", command=("figure", "5"),
        paper="savings range from just over {:g} % to just under {:g} %; "
        "TCP clients show lower variance (no adaptation).".format(*FIGURE5),
        key=("interval", "pattern"),
        claims=(
            Claim("saturated-udp[100ms,512K/TCP]",
                  cell("udp_avg_saved_pct", _FIG5_SATURATED), bound=gt(25.0),
                  paper=between(*FIGURE5), deviation=_SATURATED),
            Claim("saturated-tcp[100ms,512K/TCP]",
                  cell("tcp_avg_saved_pct", _FIG5_SATURATED), bound=gt(5.0),
                  paper=between(*FIGURE5), deviation=_SATURATED),
            *(
                Claim(
                    f"range-{side}[{interval},{pattern}]",
                    cell(f"{side}_avg_saved_pct", (interval, pattern)),
                    bound=between(40.0, 95.0), paper=between(*FIGURE5),
                    deviation=(
                        _WEB_OUTLIER
                        if (side, interval, pattern)
                        == ("tcp", "variable", "All/TCP")
                        else None
                    ),
                )
                for interval in _INTERVALS
                for pattern in _FIG5_PATTERNS
                if (interval, pattern) != _FIG5_SATURATED
                for side in ("udp", "tcp")
            ),
            *(
                Claim(f"fidelity[{interval}]",
                      cell("udp_avg_saved_pct", (interval, "56K/TCP")),
                      bound=gt(cell("udp_avg_saved_pct", (interval, "512K/TCP"))))
                for interval in ("100ms", "500ms")
            ),
            *(_fig5_variance(pattern) for pattern in _FIG5_PATTERNS),
        ),
    ),
    Entry(
        "optimal_comparison", "§4.3 comparison to the theoretical optimum",
        (View(("stream", "optimal_pct", "measured_pct", "gap_pct",
               "paper_optimal_pct", "paper_measured_pct")),),
        driver="repro.experiments.tables:optimal_comparison",
        command=("table", "optimal"),
        paper="optimal **{} %** vs measured **{} %** (56K/256K/512K); "
        "'savings within 10-{:g} % of optimal are common'.".format(
            "/".join(f"{OPTIMUM[s]:g}" for s in _STREAMS),
            "/".join(f"{FIGURE4_500MS[s]:g}" for s in _STREAMS),
            OPTIMUM_GAP,
        ),
        key=("stream",),
        claims=(
            *(
                Claim(f"optimum-above-measured[{stream}]",
                      cell("optimal_pct", stream),
                      **both(gt(cell("measured_pct", stream))))
                for stream in _STREAMS
            ),
            *(
                Claim(
                    f"gap[{stream}]", cell("gap_pct", stream),
                    bound=between(0.0, 30.0), paper=le(OPTIMUM_GAP),
                    deviation=(
                        "ten 512K streams exceed the cell (Fig. 4's "
                        "downshifts), so bursts contend for the medium; the "
                        "paper's own 512K gap is {:g} points".format(
                            OPTIMUM["512K"] - FIGURE4_500MS["512K"]
                        )
                        if stream == "512K" else None
                    ),
                )
                for stream in _STREAMS
            ),
            *_falls("optimal_pct", _STREAMS,
                    ("optimum-fidelity[56K>256K]", "optimum-fidelity[256K>512K]")),
            *_falls("measured_pct", _STREAMS,
                    ("measured-fidelity[56K>256K]", "measured-fidelity[256K>512K]")),
            *(
                Claim(f"optimum[{stream}]", cell("optimal_pct", stream),
                      bound=near(OPTIMUM[stream], 8.0),
                      paper=approx(OPTIMUM[stream]))
                for stream in ("56K", "512K")
            ),
        ),
    ),
    Entry(
        "figure6", "Figure 6 — early transition amount",
        (View(("early_ms", "early_waste_j", "missed_schedule_waste_j",
               "total_waste_j", "missed_schedules", "missed_pct",
               "avg_saved_pct")),),
        driver="repro.experiments.figures:figure6", command=("figure", "6"),
        paper="total wasted energy is U-shaped in the early amount with the "
        f"best value at **{FIGURE6_BEST_EARLY_MS} ms**; missed packets range "
        "1.83 % (0 ms) to 0.97 % (10 ms).",
        key=("early_ms",),
        claims=(
            Claim("early-waste[10>2]", cell("early_waste_j", 10),
                  **both(gt(cell("early_waste_j", 2)))),
            Claim("missed-waste[0>6]", cell("missed_schedule_waste_j", 0),
                  **both(gt(cell("missed_schedule_waste_j", 6)))),
            Claim("missed-schedules[0>=6]", cell("missed_schedules", 0),
                  bound=ge(cell("missed_schedules", 6))),
            Claim("total[6<0]", cell("total_waste_j", 6),
                  **both(lt(cell("total_waste_j", 0)))),
            Claim("total[6<=1.2x10]", cell("total_waste_j", 6),
                  bound=le(cell("total_waste_j", 10, scale=1.2)),
                  paper=lt(cell("total_waste_j", 10))),
            Claim("missed-pct[0>=10]", cell("missed_pct", 0),
                  **both(ge(cell("missed_pct", 10)))),
            Claim(
                "least-waste",
                Measure("early_ms with the least total_waste_j", _least_waste),
                paper=eq(FIGURE6_BEST_EARLY_MS),
                deviation="our AP-delay calibration is milder than the real "
                "testbed's, so small early amounts miss fewer schedules",
            ),
        ),
    ),
    Entry(
        "static_vs_dynamic",
        "§4.3 static vs dynamic schedule (identical streams, 100 ms)",
        (View(("stream", "static_avg_saved_pct", "static_variance",
               "dynamic_avg_saved_pct", "dynamic_variance")),),
        driver="repro.experiments.tables:static_vs_dynamic",
        command=("table", "static-dynamic"),
        paper="'both average energy usage and variance is lowered by using "
        "a static schedule'.",
        key=("stream",),
        claims=(
            *(
                Claim(f"variance[{stream}]", cell("static_variance", stream),
                      bound=le(cell("dynamic_variance", stream, scale=1.5)),
                      paper=lt(cell("dynamic_variance", stream)))
                for stream in _STREAMS
            ),
            *(
                Claim(f"saved[{stream}]", cell("static_avg_saved_pct", stream),
                      bound=ge(cell("dynamic_avg_saved_pct", stream, shift=-1.5)),
                      paper=gt(cell("dynamic_avg_saved_pct", stream)))
                for stream in _STREAMS
            ),
            Claim("static-wins[256K,512K]",
                  Measure("max over 256K, 512K of static − dynamic "
                          "avg_saved_pct", _static_win),
                  **both(gt(0))),
        ),
    ),
    Entry(
        "figure7", "Figure 7 — static TCP/UDP slots at 500 ms",
        (View(("tcp_weight_pct", "video_energy_used_pct",
               "tcp_energy_used_pct", "tcp_latency_ms", "tcp_objects")),),
        driver="repro.experiments.figures:figure7", command=("figure", "7"),
        paper="small TCP slots starve TCP (latency grows toward seconds), "
        "large slots waste energy on every TCP client; video energy grows "
        "with fidelity.",
        key=("tcp_weight_pct",),
        claims=(
            *(
                Claim(f"tcp-energy[{small}<{large}]",
                      cell("tcp_energy_used_pct", small),
                      **both(lt(cell("tcp_energy_used_pct", large))))
                for small, large in ((10, 33), (33, 56))
            ),
            Claim("tcp-latency[10>33]", cell("tcp_latency_ms", 10),
                  **both(gt(cell("tcp_latency_ms", 33)))),
            Claim("tcp-latency[10]", cell("tcp_latency_ms", 10), bound=gt(700.0)),
            *(
                Claim(f"video-fidelity[{weight}]", _video_used(weight, 56),
                      **both(lt(_video_used(weight, 512))))
                for weight in (10, 33, 56)
            ),
        ),
    ),
    Entry(
        "pareto", "Extension — policy Pareto front (energy × delay)",
        (
            View(
                ("policy", "avg_saved_pct", "mean_queue_delay_ms",
                 "avg_loss_pct", "policy_grants", "policy_defers"),
                caption="Full-testbed runs under the Pareto channel plan "
                "(energy = savings vs naive, delay = byte-weighted mean time "
                "in the proxy queues):",
                where=("source", "sim"),
            ),
            View(
                ("policy", "mean_total_cost", "mean_energy_cost",
                 "mean_delay_slots"),
                caption="Discrete (queue, channel) model averaged over "
                "random instances, with the clairvoyant DP optimum as the "
                "lower-bound anchor (`optimal` — no online policy can beat "
                "it; the differential suite under `tests/core/` asserts "
                "exactly that):",
                where=("source", "model"),
            ),
        ),
        driver="repro.experiments.figures:pareto", command=("figure", "pareto"),
        intro=(
            "Beyond the paper: per-client Gilbert–Elliott channels and a "
            "family of slot-admission policies (DESIGN.md §14). `dynamic` is "
            "the paper's policy (admit every backlogged client), `channel` "
            "defers bad-channel clients a bounded number of intervals, "
            "`joint` additionally lets a deep backlog override a bad "
            "channel. Each policy trades queueing delay against energy "
            "wasted transmitting into fades.",
        ),
    ),
    Entry(
        "campus", "Extension — multi-AP campus with roaming clients",
        (View(("cells", "roam_rate", "avg_saved_pct", "min_saved_pct",
               "avg_loss_pct", "handoffs", "handoff_bytes")),),
        driver="repro.experiments.figures:campus_grid",
        command=("figure", "campus"),
        intro=(
            "Beyond the paper: N independent cells (each its own medium, "
            "AP, and proxy scheduler shard), clients roaming between them on "
            "a seeded epoch grid, and a handoff coordinator migrating queue "
            "state and schedule membership between shards (DESIGN.md §15). "
            "Energy saved × handoff count over the cell-count × roam-rate "
            "grid:",
        ),
        notes=(
            "Per-cell schedules see fewer contenders, and a 1-cell campus "
            "is byte-identical to the classic testbed (pinned by the "
            "differential suite under `tests/campus/`). Each handoff spends "
            "a radio gap plus queue migration; the transfer policy keeps the "
            "backlog (handoff_bytes) instead of dropping it.",
        ),
        key=("cells", "roam_rate"),
        claims=(
            *(
                claim
                for cells in (1, 2, 4)
                for claim in (
                    Claim(f"no-handoffs[{cells},0]",
                          cell("handoffs", (cells, 0.0)), bound=eq(0)),
                    Claim(f"no-loss[{cells},0]",
                          cell("avg_loss_pct", (cells, 0.0)), bound=eq(0.0)),
                )
            ),
            *(
                claim
                for cells in (2, 4)
                for claim in (
                    Claim(f"roams[{cells},0.1]",
                          cell("handoffs", (cells, 0.1)), bound=gt(0)),
                    Claim(f"saved[{cells},0.1]",
                          cell("avg_saved_pct", (cells, 0.1)), bound=gt(50.0)),
                    Claim(f"roaming-costs[{cells},0.1]",
                          cell("avg_saved_pct", (cells, 0.1)),
                          bound=le(cell("avg_saved_pct", (cells, 0.0)))),
                )
            ),
        ),
    ),
    Entry(
        "drop_effect_netfilter", "§4.3 packet-drop validation — Netfilter",
        (View(("setup", "transfer_s_drops_enforced",
               "transfer_s_receive_anyway", "slowdown_fraction")),),
        driver="repro.experiments.tables:drop_effect_netfilter",
        command=("table", "drops-netfilter"),
        paper="really dropping packets while the card sleeps (Netfilter) "
        f"lengthened transfers by **no more than ~{DROP_SLOWDOWN:.0%}**.",
        key=("setup",),
        claims=(
            Claim("completes[single-client]",
                  cell("transfer_s_drops_enforced", "single-client"),
                  bound=ne(None)),
            Claim("slowdown[single-client]",
                  cell("slowdown_fraction", "single-client"),
                  bound=le(0.10), paper=le(DROP_SLOWDOWN)),
        ),
    ),
    Entry(
        "drop_effect_dummynet", "§4.3 packet-drop validation — DummyNet",
        (View(("transfer_s_clean", "transfer_s_5pct_loss",
               "slowdown_fraction")),),
        driver="repro.experiments.tables:drop_effect_dummynet",
        command=("table", "drops-dummynet"),
        paper="a DummyNet pipe at 4 Mb/s / 2 ms RTT / 5 % loss behaved like "
        "Netfilter (transfers no more than ~10 % longer).",
        claims=(
            Claim("completes", cell("transfer_s_5pct_loss"), bound=ne(math.inf)),
            Claim("slowdown", cell("slowdown_fraction"), bound=lt(5.0),
                  paper=le(DROP_SLOWDOWN),
                  deviation="our TCP has no tail-loss probes: a loss on the "
                  "last packet in flight or on a retransmission costs a "
                  "≥200 ms RTO"),
        ),
    ),
    Entry(
        "memory_footprint", "§3.2.2 proxy memory",
        (View(("peak_buffer_bytes", "claimed_bound_bytes", "within_claim")),),
        driver="repro.experiments.tables:memory_footprint",
        command=("table", "memory"),
        paper="'even if one second of data (to all clients) had to be "
        "buffered, 512 KB would be sufficient'.",
        claims=(
            Claim("buffers", cell("peak_buffer_bytes"), bound=gt(0)),
            Claim("peak", cell("peak_buffer_bytes"),
                  bound=le(cell("claimed_bound_bytes", scale=2.0)),
                  paper=le(cell("claimed_bound_bytes")),
                  deviation="under the saturating 8×512K+web load, TCP "
                  "backlog (up to 64 KiB of window per connection) rides in "
                  "the queues alongside the one-interval UDP buffering"),
        ),
    ),
    Entry(
        "schedule_reuse", "§5 future work — schedule reuse",
        (View(("reuse_enabled", "avg_saved_pct", "schedules_sent",
               "schedules_reused", "avg_loss_pct")),),
        driver="repro.experiments.tables:schedule_reuse",
        command=("table", "reuse"),
        paper="(proposal only) if the schedule repeats, clients can skip "
        "the schedule wake-up.",
        notes=(
            "Under VBR video the layout rarely repeats exactly, so reuse "
            "fires sparsely; CBR workloads reuse far more often (see the "
            "unit tests).",
        ),
        key=("reuse_enabled",),
        claims=(
            Claim("reuses", cell("schedules_reused", True), bound=gt(0)),
            Claim("fewer-broadcasts", cell("schedules_sent", True),
                  bound=lt(cell("schedules_sent", False))),
            Claim("saved", cell("avg_saved_pct", True),
                  bound=ge(cell("avg_saved_pct", False, shift=-0.5))),
            Claim("loss", cell("avg_loss_pct", True), bound=lt(3.0)),
        ),
    ),
    Entry(
        "split_ablation", "Ablation — why connections are split (§2, §3.2)",
        (View(("mode", "transfer_time_s", "done", "energy_saved_pct")),),
        driver="repro.experiments.tables:split_connection_ablation",
        command=("table", "ablation"),
        intro=(
            "The same FTP download via the paper's split design, via a "
            "buffering non-split proxy (the rejected design: buffering "
            "inflates RTT, the end-to-end window throttles), and direct.",
        ),
        key=("mode",),
        claims=(
            Claim("done[split]", cell("done", "split"), bound=eq(True)),
            Claim("done[bridge]", cell("done", "bridge"), bound=eq(True)),
            Claim("split-vs-bridge", cell("transfer_time_s", "split"),
                  bound=lt(cell("transfer_time_s", "bridge", scale=3.0))),
            Claim("passthrough-vs-split", cell("transfer_time_s", "passthrough"),
                  bound=gt(cell("transfer_time_s", "split", scale=1.8))),
            Claim("saved[split]", cell("energy_saved_pct", "split"),
                  bound=gt(50.0)),
            Claim("saved[bridge]", cell("energy_saved_pct", "bridge"),
                  bound=lt(5.0)),
        ),
    ),
    Entry(
        "compensator_ablation", "Ablation — delay compensation (§3.3)",
        (View(("variant", "avg_saved_pct", "avg_loss_pct",
               "missed_schedules")),),
        driver="repro.experiments.tables:compensator_ablation",
        command=("table", "compensators"),
        intro=(
            "`adaptive` is the paper's algorithm, which needs no clock "
            "synchronization; `fixed-exact` trusts absolute proxy "
            "timestamps under a perfect clock, `fixed-skewed` under a 20 ms "
            "clock error.",
        ),
        key=("variant",),
        claims=(
            Claim("skew-misses", cell("missed_schedules", "fixed-skewed"),
                  bound=gt(Measure(
                      "10 × max(1, missed_schedules[adaptive])",
                      lambda index: 10 * max(
                          1, index["adaptive"]["missed_schedules"]
                      ),
                  ))),
            Claim("skew-saves-less", cell("avg_saved_pct", "fixed-skewed"),
                  bound=lt(cell("avg_saved_pct", "adaptive"))),
            Claim("adaptive-matches-exact", cell("avg_saved_pct", "adaptive"),
                  bound=gt(cell("avg_saved_pct", "fixed-exact", shift=-3.0))),
        ),
    ),
    Entry(
        "replay_sweep", "§4.1 methodology — postmortem policy replay",
        (View(("early_ms", "replay_saved_pct", "replay_missed_schedules",
               "replay_frames_missed", "replay_early_wait_s")),),
        intro=(
            "One live capture, replayed offline against different early "
            "amounts (how the paper's simulator produced Figure 6).",
        ),
        key=("early_ms",),
        claims=(
            Claim("frames-missed[0>=6]", cell("replay_frames_missed", 0.0),
                  bound=ge(cell("replay_frames_missed", 6.0))),
            Claim("early-wait[10>2]", cell("replay_early_wait_s", 10.0),
                  bound=gt(cell("replay_early_wait_s", 2.0))),
            *(
                Claim(f"saved[{early:g}]", cell("replay_saved_pct", early),
                      bound=gt(50.0))
                for early in (0.0, 2.0, 6.0, 10.0)
            ),
        ),
    ),
    Entry(
        "psm_baseline", "Extension — 802.11b PSM baseline (§2)",
        (View(("policy", "energy_saved_pct", "mean_latency_ms",
               "p95_latency_ms", "packets_delivered", "packets_missed")),),
        driver="repro.experiments.baselines:psm_comparison",
        command=("table", "psm"),
        paper="(citing prior work) PSM 'is not a good match' for streaming.",
        intro=("Same 225 kbps stream under three policies:",),
        key=("policy",),
        claims=(
            Claim("naive-saves-nothing", cell("energy_saved_pct", "naive"),
                  bound=lt(5.0)),
            Claim("psm-saves", cell("energy_saved_pct", "psm"), bound=gt(50.0)),
            Claim("proxy-saves", cell("energy_saved_pct", "proxy"),
                  bound=gt(50.0)),
            Claim("proxy-delivers", cell("packets_missed", "proxy"),
                  bound=eq(0)),
            Claim("psm-misses", cell("packets_missed", "psm"),
                  bound=gt(cell("packets_missed", "proxy"))),
            Claim("naive-latency", cell("mean_latency_ms", "naive"),
                  bound=lt(10.0)),
            Claim("psm-latency", cell("mean_latency_ms", "psm"),
                  bound=gt(20.0)),
        ),
    ),
    Entry(
        "sweep", "Reproduction cost — cold vs warm cache",
        (View(("mode", "jobs", "wall_s", "executed", "cache_hits",
               "speedup_vs_cold")),),
        intro=(
            "The sweep engine (DESIGN.md §10) content-addresses every run by "
            "(task, canonical config JSON, code fingerprint): a cold "
            "invocation simulates and populates the cache, a warm rerun of "
            "the same artifact replays results from disk without a single "
            "simulation. Figure-4 grid, quick sizing, latest "
            "`BENCH_sweep.json` entry:",
        ),
        notes=(
            "The cold serial sweep's measured steps, from the "
            "`BENCH_sweep.json` trajectory: on a single-CPU host the kernel "
            "rewrite (DESIGN.md §11) cut it from 10.8 s to 5.9 s (~1.8×), "
            "and the warm worker pool (persistent preloaded workers, chunked "
            "dispatch) lifted `--jobs 2` from 0.86× of serial — parallel "
            "fan-out used to *lose* to process spawn/import cost — to "
            "break-even, where one CPU makes a genuine speedup impossible. "
            "On a shared 2-CPU host the sweep took 8.2 s cold-serial (4.8 s "
            "at `--jobs 2`) just before links, AP forwarding and the medium "
            "went to one heap push per packet per hop (DESIGN.md §11); the "
            "table above is that host after the change. A single wall-clock "
            "run there varies by more than the change's gain (7.3-9.4 s for "
            "one code version), so the gain was measured with the paired, "
            "kernel-normalised benchmark in `perfbench/`: `fig4_grid` "
            "`run_s` (CPU seconds per pass, scaled by a reference kernel) "
            "fell from 6.37 s to 5.70 s (-10.6%, median of 10 alternating "
            "pairs, the change faster in all 10), and the events per pass "
            "from 964,732 to 534,241. The CI perf-smoke job requires an "
            "outright `--jobs 2` win on ≥2 CPUs. Trajectory rows carry the "
            "code fingerprint and host CPU count, so entries recorded on "
            "different machines or against different code compare honestly.",
            "Any source change under `src/repro/` rotates the code "
            "fingerprint and cold-starts every key, so a warm cache can "
            "never serve stale physics.",
        ),
    ),
    Entry(
        "obs_overhead", "Observability overhead",
        (View(("t_null_s", "t_trace_s", "t_full_s", "null_overhead_pct",
               "full_overhead_pct")),),
        intro=(
            "CPU cost of the instrumentation facade on the "
            "schedule-reuse workload (median of 7 alternating runs per "
            "mode; `null` = NullRecorder hooks, `trace` = pre-obs "
            "baseline, `full` = trace + metrics + spans). The NullRecorder "
            "budget is 5%.",
        ),
    ),
)

#: Entries by results-file name.
BY_NAME: dict[str, Entry] = {entry.name: entry for entry in ENTRIES}


def commands(kind: str) -> dict[str, Entry]:
    """CLI spelling -> entry for ``repro figure`` or ``repro table``."""
    return {
        entry.command[1]: entry
        for entry in ENTRIES
        if entry.command is not None and entry.command[0] == kind
    }
