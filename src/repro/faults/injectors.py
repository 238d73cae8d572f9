"""Composable, RNG-seeded fault injectors for the wireless medium.

Each injector inspects one frame as it finishes its airtime and may
return a :class:`Verdict` — drop it (with a reason that becomes a
counter key), transmit it twice, or push it behind the frames queued
after it. Injectors draw only from generators handed to them (the
experiment's named RNG streams), so a fault scenario is a pure function
of ``(plan, seed)`` and replays byte-identically.

The :class:`FaultPipeline` composes injectors in a fixed order;
:mod:`repro.net.medium` consults it from the channel drain loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.schedule import SCHEDULE_PORT
from repro.faults.plan import ChurnEvent, GilbertElliottSpec, Window
from repro.net.packet import Packet

#: Verdict actions understood by the medium.
DROP = "drop"
DUPLICATE = "duplicate"
REORDER = "reorder"


@dataclass(frozen=True, slots=True)
class Verdict:
    """What the fault layer wants done with one frame."""

    action: str  # DROP | DUPLICATE | REORDER
    reason: str  # counter suffix, e.g. "loss" -> "faults.loss"


class Injector:
    """Base class: inspect a frame, maybe return a verdict."""

    def judge(self, now: float, packet: Packet) -> Optional[Verdict]:
        raise NotImplementedError


class IidLoss(Injector):
    """Independent per-frame loss with a fixed rate."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        self.rate = rate
        self.rng = rng

    def judge(self, now: float, packet: Packet) -> Optional[Verdict]:
        if self.rng.random() < self.rate:
            return Verdict(DROP, "loss")
        return None


class GilbertElliottChain:
    """The bare two-state Markov chain behind Gilbert–Elliott models.

    One :meth:`step` consumes exactly one draw from ``rng`` and maybe
    flips the state — the reusable state machinery shared by the
    :class:`GilbertElliottLoss` fault injector (which steps per frame)
    and the per-client channel model in :mod:`repro.net.channel` (which
    steps per epoch on its own exclusive stream).
    """

    __slots__ = ("spec", "rng", "bad", "bad_visits")

    def __init__(self, spec: GilbertElliottSpec, rng: np.random.Generator) -> None:
        self.spec = spec
        self.rng = rng
        self.bad = False
        self.bad_visits = 0

    def step(self) -> bool:
        """Advance one transition; returns True when now in bad state."""
        spec = self.spec
        flip = self.rng.random()
        if self.bad:
            if flip < spec.p_bad_good:
                self.bad = False
        elif flip < spec.p_good_bad:
            self.bad = True
            self.bad_visits += 1
        return self.bad

    @property
    def loss_rate(self) -> float:
        """Per-frame loss rate of the current state."""
        return self.spec.loss_bad if self.bad else self.spec.loss_good


class GilbertElliottLoss(Injector):
    """Two-state bursty loss (Gilbert–Elliott channel model).

    The chain transitions once per frame, then the frame is dropped
    with the loss rate of the state it landed in. Burst lengths are
    geometric with mean ``1 / p_bad_good``. Transition and loss draws
    interleave on the injector's one stream exactly as before the chain
    was factored out, so existing fault-plan replays are unchanged.
    """

    def __init__(self, spec: GilbertElliottSpec, rng: np.random.Generator) -> None:
        self.spec = spec
        self.rng = rng
        self.chain = GilbertElliottChain(spec, rng)

    @property
    def bad(self) -> bool:
        return self.chain.bad

    @property
    def bad_visits(self) -> int:
        return self.chain.bad_visits

    def judge(self, now: float, packet: Packet) -> Optional[Verdict]:
        self.chain.step()
        loss = self.chain.loss_rate
        if loss > 0.0 and self.rng.random() < loss:
            return Verdict(DROP, "burst_loss")
        return None


class Corruptor(Injector):
    """Frames that arrive damaged: the CRC fails, the frame is lost.

    Counted apart from channel loss because the paper's decoder-facing
    robustness (and :mod:`repro.runtime.wire`) cares about *damaged*
    datagrams, not just absent ones.
    """

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        self.rate = rate
        self.rng = rng

    def judge(self, now: float, packet: Packet) -> Optional[Verdict]:
        if self.rng.random() < self.rate:
            return Verdict(DROP, "corrupt")
        return None


class Duplicator(Injector):
    """Occasionally transmit a frame twice (MAC-level retry gone wrong).

    The duplicate occupies airtime again, like a real spurious retry;
    the second pass is recognized and never re-duplicated.
    """

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        self.rate = rate
        self.rng = rng
        self._second_pass: set[int] = set()

    def judge(self, now: float, packet: Packet) -> Optional[Verdict]:
        if packet.packet_id in self._second_pass:
            self._second_pass.discard(packet.packet_id)
            return None
        if self.rng.random() < self.rate:
            self._second_pass.add(packet.packet_id)
            return Verdict(DUPLICATE, "duplicate")
        return None


class Reorderer(Injector):
    """Push a frame behind whatever is queued after it (AP requeue)."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        self.rate = rate
        self.rng = rng
        self._deferred: set[int] = set()

    def judge(self, now: float, packet: Packet) -> Optional[Verdict]:
        if packet.packet_id in self._deferred:
            self._deferred.discard(packet.packet_id)
            return None
        if self.rng.random() < self.rate:
            self._deferred.add(packet.packet_id)
            return Verdict(REORDER, "reorder")
        return None


class Outage(Injector):
    """AP power loss: nothing crosses the air inside the windows."""

    def __init__(self, windows: Sequence[Window]) -> None:
        self.windows = tuple(windows)

    def judge(self, now: float, packet: Packet) -> Optional[Verdict]:
        if any(w.contains(now) for w in self.windows):
            return Verdict(DROP, "outage")
        return None


class ScheduleBlackout(Injector):
    """Only the schedule broadcasts die (lost beacon pathology).

    This is the targeted stress for the client's missed-broadcast
    fallback: data keeps flowing, but the control channel goes dark.
    """

    def __init__(self, windows: Sequence[Window]) -> None:
        self.windows = tuple(windows)

    @staticmethod
    def is_schedule(packet: Packet) -> bool:
        return packet.is_broadcast and packet.dst.port == SCHEDULE_PORT

    def judge(self, now: float, packet: Packet) -> Optional[Verdict]:
        if self.is_schedule(packet) and any(
            w.contains(now) for w in self.windows
        ):
            return Verdict(DROP, "blackout")
        return None


class Churn:
    """Mid-run membership: a departed client's radio is out of range.

    Uplink frames *from* a gone client die on the channel
    (:meth:`judge`); frames *to* it — including broadcasts other
    stations must still hear — are missed at its antenna
    (:meth:`can_hear`, consulted by the medium's delivery loop).
    """

    def __init__(self, events: Sequence[ChurnEvent], ip_of) -> None:
        self.events: dict[str, list[ChurnEvent]] = {}
        for event in events:
            ip = ip_of(event.client_index)
            self.events.setdefault(ip, []).append(event)

    def gone(self, ip: str, now: float) -> bool:
        return any(e.gone(now) for e in self.events.get(ip, ()))

    def judge(self, now: float, packet: Packet) -> Optional[Verdict]:
        if self.gone(packet.src.ip, now):
            return Verdict(DROP, "churn")
        return None

    def can_hear(self, now: float, ip: str) -> bool:
        return not self.gone(ip, now)


class FaultPipeline:
    """The fixed-order composition the medium consults per frame.

    Deterministic (time-gated injectors first, then the stateful RNG
    ones) so two runs with the same seed see identical draw sequences.
    """

    def __init__(self, injectors: Sequence[Injector], churn: Optional[Churn] = None):
        self.injectors = list(injectors)
        self.churn = churn

    def judge(self, now: float, packet: Packet) -> Optional[Verdict]:
        """First verdict wins; None means deliver normally."""
        if self.churn is not None:
            verdict = self.churn.judge(now, packet)
            if verdict is not None:
                return verdict
        for injector in self.injectors:
            verdict = injector.judge(now, packet)
            if verdict is not None:
                return verdict
        return None

    def can_hear(self, now: float, ip: str) -> bool:
        """Receiver-side gate (churned clients miss even broadcasts)."""
        if self.churn is not None:
            return self.churn.can_hear(now, ip)
        return True
