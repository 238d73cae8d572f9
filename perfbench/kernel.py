"""The fixed reference kernel and the meter that normalises CPU time by it.

A shared host slows every process on it by a factor that drifts over
seconds: other tenants contend for the core and for the shared cache,
and code slows by how much it leans on each. The reference kernel is a
fixed pure-Python loop with the simulator's mix of work, in two halves:
heapq push/pop churn with tuple and list allocation over a small dict
(core-bound), and dict lookups scattered over a table far larger than
the core's private cache (cache-bound; a campus run keeps about a
hundred megabytes of state). Either half alone tracks one simulator
workload and misses the other; measured against repeated figure-4 and
campus experiments on a noisy host, their sum cut the interquartile
spread of CPU seconds per experiment from 15-17% to 5%.

The kernel lives in the benchmark's own files, so no change under test
can move it. The meter times it at checkpoints between units of work
and scales each unit's CPU seconds by ``KERNEL_NOMINAL_S / measured
seconds per kernel call``, so that a slow host period cancels out of
the reported cost.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from typing import Callable

#: Entries in the cache-bound half's table (about 45 MB with its values).
TABLE_SIZE = 1 << 18
#: Loop length of each half of one kernel call.
KERNEL_STEPS = 4000
#: Kernel calls per checkpoint; their median is the checkpoint's sample.
CALLS_PER_SAMPLE = 3
#: Nominal seconds per kernel call: the scale of every normalised time.
KERNEL_NOMINAL_S = 0.0115
#: The kernel's return value; a different one means the kernel changed.
KERNEL_CHECKSUM = 15708


class KernelChanged(Exception):
    """The reference kernel returned another checksum: its code moved."""


@lru_cache(maxsize=1)
def _table() -> tuple[dict[int, tuple[int, int]], list[int]]:
    """The large table and a fixed scattered order of its keys (an odd
    multiplier permutes the keys modulo the power-of-two table size)."""
    mask = TABLE_SIZE - 1
    table = {key: (key, key * 3) for key in range(TABLE_SIZE)}
    return table, [(key * 40503) & mask for key in range(TABLE_SIZE)]


def _core_bound(steps: int) -> int:
    heap: list = []
    counts: dict[int, int] = {}
    acc = 0
    for i in range(steps):
        key = (i * 2654435761) & 1023
        heappush(heap, (key, i, [i, key]))
        counts[key] = counts.get(key, 0) + 1
        if len(heap) > 128:
            acc += heappop(heap)[1]
    return acc + len(counts)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def table_footprint_mb() -> float:
    """Build the cache-bound half's table and return the megabytes it
    added to the process's peak resident memory.

    Call it before the first kernel call, once the program is imported:
    the table then stays resident for the rest of the run, and the
    program's own peak is the process's peak minus this.
    """
    before = _peak_rss_mb()
    _table()
    return _peak_rss_mb() - before


def program_peak_rss_mb(table_mb: float) -> float:
    """The process's peak resident memory without the kernel's table."""
    return _peak_rss_mb() - table_mb


def _cache_bound(steps: int) -> int:
    table, order = _table()
    mask = TABLE_SIZE - 1
    heap: list = []
    acc = 0
    for i in range(steps):
        first, second = table[order[(i * 7919) & mask]]
        heappush(heap, (second & 1023, i, [first]))
        if len(heap) > 128:
            acc += heappop(heap)[1]
    return acc


def reference_kernel(steps: int = KERNEL_STEPS) -> int:
    """One call of the reference kernel; returns a checksum."""
    return _core_bound(steps) ^ _cache_bound(steps)


def kernel_sample() -> float:
    """CPU seconds per kernel call now (median of a few calls)."""
    times = []
    for _ in range(CALLS_PER_SAMPLE):
        started = time.process_time()
        checksum = reference_kernel()
        times.append(time.process_time() - started)
        if checksum != KERNEL_CHECKSUM:
            raise KernelChanged(f"reference kernel checksum {checksum}")
    return statistics.median(times)


#: Kernel samples on each side of a unit whose median normalises it:
#: a brief blip in one sample is voted out, a phase lasting seconds is not.
WINDOW = 2


@dataclass(frozen=True)
class Unit:
    """One metered unit of work between two checkpoints."""

    label: str
    cpu_s: float
    wall_s: float
    #: Kernel seconds per call around the unit (median of the window).
    kernel_s: float

    @property
    def norm_s(self) -> float:
        """CPU seconds scaled to the kernel's nominal speed."""
        return self.cpu_s * KERNEL_NOMINAL_S / self.kernel_s


class Meter:
    """Splits a run into units at checkpoints, with a kernel sample at
    each checkpoint; kernel time is never charged to a unit.

    ``exclude`` wraps each kernel sample, so that a layer tracer can
    keep the kernel out of the self time of the function it runs in.
    With ``collect``, each checkpoint first runs a full garbage
    collection, charged to the unit it closes (freeing a unit's garbage
    is part of its cost), so every unit starts from the same collector
    state; use it only where units are independent runs.
    """

    def __init__(
        self,
        exclude: Callable[[], AbstractContextManager] = nullcontext,
        collect: bool = False,
    ) -> None:
        self._exclude = exclude
        self._collect = collect
        self._raw: list[tuple[str, float, float, float | None]] = []
        self.kernel = [kernel_sample()]
        self._cpu = time.process_time()
        self._wall = time.perf_counter()

    def checkpoint(
        self, label: str, kernel_s: float | None = None,
        uncharged_s: float = 0.0,
    ) -> None:
        """Close the unit that ran since the last checkpoint.

        A caller that sampled the kernel while the unit ran passes its
        seconds per call as ``kernel_s``, and the CPU seconds those
        samples took as ``uncharged_s``; the unit is then normalised by
        ``kernel_s``, and no checkpoint sample is taken.
        """
        if self._collect:
            gc.collect()
        cpu = time.process_time() - self._cpu - uncharged_s
        wall = time.perf_counter() - self._wall
        if kernel_s is None:
            with self._exclude():
                self.kernel.append(kernel_sample())
        self._raw.append((label, cpu, wall, kernel_s))
        self._cpu = time.process_time()
        self._wall = time.perf_counter()

    @property
    def units(self) -> list[Unit]:
        """The units so far, each normalised by the kernel samples
        within ``WINDOW`` checkpoints of it."""
        out = []
        for i, (label, cpu, wall, kernel_s) in enumerate(self._raw):
            if kernel_s is None:
                around = self.kernel[max(0, i - WINDOW + 1): i + WINDOW + 1]
                kernel_s = statistics.median(around)
            out.append(Unit(label, cpu, wall, kernel_s))
        return out
