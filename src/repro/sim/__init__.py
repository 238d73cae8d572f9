"""Discrete-event simulation kernel.

A small, deterministic, generator-based kernel in the style of SimPy:
processes are Python generators that ``yield`` events; the
:class:`~repro.sim.core.Simulator` advances virtual time along a binary
heap of pending events. Determinism is guaranteed by a total event order
``(time, priority, sequence-number)`` and by drawing all randomness from
named, seeded streams (:class:`~repro.sim.random.RngStreams`).
"""

from repro.sim.core import Event, Simulator, Timeout
from repro.sim.process import Process
from repro.sim.random import RngStreams
from repro.sim.trace import TraceRecord, TraceRecorder

__all__ = [
    "Event",
    "Process",
    "RngStreams",
    "Simulator",
    "Timeout",
    "TraceRecord",
    "TraceRecorder",
]
