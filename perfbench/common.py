"""Pieces every workload shares: the measured outcome, the set-up
timing, and the output digest."""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.kernel import KERNEL_NOMINAL_S, kernel_sample

#: The checkout's source tree; the program is always imported from here.
SRC = Path(__file__).resolve().parent.parent / "src"
#: Set-up is repeated this many times per run; its median is reported.
SETUP_REPEATS = 5
#: The seed whose output digests are pinned.
DEFAULT_SEED = 0


@dataclass
class Measured:
    """What one workload run measured (times in CPU seconds)."""

    #: Normalised set-up seconds, and the raw CPU seconds behind them.
    setup_s: float
    setup_raw_s: float
    #: Normalised CPU seconds of one pass of the timed phase, and raw.
    run_s: float
    run_raw_s: float
    #: Client-seconds carried by one pass: simulated, or for the live
    #: proxy one burst interval of paced service per request (so that
    #: a faster reply does not read as less work).
    client_s: float
    attempted: int
    failed: int
    #: Passes the timed phase ran (per-layer figures are per pass).
    passes: float = 1.0
    #: Counters read from the program (per-layer metrics, traced runs).
    counters: dict = field(default_factory=dict)
    #: Everything else the run record keeps (raw seconds, kernel times).
    record: dict = field(default_factory=dict)


def digest(rows: object) -> str:
    """SHA-256 of the canonical JSON of result rows."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def normalise(cpu_s: float, kernel_s: float) -> float:
    """CPU seconds scaled to the kernel's nominal seconds per call."""
    return cpu_s * KERNEL_NOMINAL_S / kernel_s


_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "started = time.process_time()\n"
    "for name in sys.argv[2:]:\n"
    "    __import__(name)\n"
    "print(time.process_time() - started)\n"
)


def import_seconds(modules: tuple[str, ...]) -> tuple[list[float], list[float]]:
    """Normalised and raw CPU seconds of importing ``modules`` in a
    fresh interpreter, once per set-up repeat."""
    norm, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = kernel_sample()
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), *modules],
            capture_output=True, text=True, check=True, timeout=60,
        )
        seconds = float(done.stdout.strip().splitlines()[-1])
        kernel = (before + kernel_sample()) / 2.0
        raw.append(seconds)
        norm.append(normalise(seconds, kernel))
    return norm, raw


def setup_record(
    import_norm: list[float], import_raw: list[float],
    start_norm: list[float], start_raw: list[float],
) -> tuple[float, float, dict]:
    """``setup_s`` (median import + median start-up), its raw twin,
    and the samples behind it for the run record."""
    setup_s = statistics.median(import_norm) + statistics.median(start_norm)
    setup_raw = statistics.median(import_raw) + statistics.median(start_raw)
    return setup_s, setup_raw, {
        "import_raw_s": import_raw,
        "startup_raw_s": start_raw,
        "import_norm_s": import_norm,
        "startup_norm_s": start_norm,
    }
