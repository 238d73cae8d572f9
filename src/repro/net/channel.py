"""Per-client multi-state wireless channel (seeded Gilbert–Elliott).

The fault injectors in :mod:`repro.faults` model one shared impairment
on the cell; mobile clients, though, fade *individually* — one laptop
behind a pillar sees a bad channel while its neighbors stay clean. The
channel model keeps one two-state Gilbert–Elliott chain per client
(reusing :class:`~repro.faults.injectors.GilbertElliottChain`), stepped
on a fixed epoch grid so the state at any simulated time is a pure
function of ``(plan, seed, client)``.

Determinism contract (the "exclusive stream" fix): every chain draws
transitions from its own named stream ``channel:{ip}`` and per-frame
loss coin flips from ``channel-loss:{ip}``. Nothing else touches those
names, and the channel touches no other stream — so installing (or
removing) channel modeling can never perturb an existing fault-plan
replay, and frame-count changes can never perturb the state trajectory.

The medium consults :meth:`ChannelModel.tx_blocked` /
:meth:`ChannelModel.rx_blocked` per frame; the proxy reads
:meth:`ChannelModel.state_good` at schedule-construction time — the
observability hook that makes channel-aware policies possible without
giving the proxy clairvoyance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import ConfigurationError
from repro.faults.injectors import GilbertElliottChain
from repro.faults.plan import GilbertElliottSpec
from repro.net.packet import Packet
from repro.obs.recorder import NullRecorder, Recorder
from repro.units import ms

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.random import RngStreams

from dataclasses import dataclass

#: Stream-name prefixes reserved for the channel model (exclusive).
TRANSITION_STREAM_PREFIX = "channel:"
LOSS_STREAM_PREFIX = "channel-loss:"


@dataclass(frozen=True)
class ChannelPlan:
    """Declarative description of the per-client channel processes.

    All clients share the same chain parameters but evolve on
    independent streams. ``epoch_s`` is the transition grid: one chain
    step per epoch, independent of how many frames fly (geometric
    bad-state dwell of mean ``epoch_s / p_bad_good`` seconds).
    ``loss_good``/``loss_bad`` are per-frame loss rates in each state.
    """

    p_good_bad: float = 0.05
    p_bad_good: float = 0.25
    loss_good: float = 0.0
    loss_bad: float = 0.9
    epoch_s: float = ms(100)
    start_good: bool = True

    def __post_init__(self) -> None:
        for label, value in (
            ("p_good_bad", self.p_good_bad),
            ("p_bad_good", self.p_bad_good),
            ("loss_good", self.loss_good),
            ("loss_bad", self.loss_bad),
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"channel {label} must be a probability: {value!r}"
                )
        if self.epoch_s <= 0:
            raise ConfigurationError(
                f"channel epoch must be positive: {self.epoch_s!r}"
            )

    @property
    def spec(self) -> GilbertElliottSpec:
        """The equivalent fault-layer chain specification."""
        return GilbertElliottSpec(
            p_good_bad=self.p_good_bad,
            p_bad_good=self.p_bad_good,
            loss_good=self.loss_good,
            loss_bad=self.loss_bad,
        )


class _ClientChannel:
    """One client's chain plus its private draw streams."""

    __slots__ = ("chain", "loss_rng", "epoch", "bad_since")

    def __init__(self, chain: GilbertElliottChain, loss_rng) -> None:
        self.chain = chain
        self.loss_rng = loss_rng
        self.epoch = 0
        #: Epoch-grid time the current bad dwell began (None when good).
        self.bad_since: Optional[float] = None


class ChannelModel:
    """The per-client channel processes, advanced lazily on demand.

    State queries advance each chain to ``floor(now / epoch_s)`` one
    epoch at a time, emitting a ``channel.transition`` event and a
    ``channel`` track span per bad dwell — the per-client channel-state
    timeline the goldens pin.
    """

    def __init__(
        self,
        plan: ChannelPlan,
        streams: "RngStreams",
        client_ips: Sequence[str],
        obs: Optional[Recorder] = None,
    ) -> None:
        if not client_ips:
            raise ConfigurationError("channel model needs at least one client")
        self.plan = plan
        self.obs = obs if obs is not None else NullRecorder()
        self._clients: dict[str, _ClientChannel] = {}
        for ip in client_ips:
            chain = GilbertElliottChain(
                plan.spec,
                streams.get(f"{TRANSITION_STREAM_PREFIX}{ip}"),
                bad=not plan.start_good,
            )
            state = _ClientChannel(
                chain, streams.get(f"{LOSS_STREAM_PREFIX}{ip}")
            )
            if chain.bad:
                state.bad_since = 0.0
            self._clients[ip] = state
        self.transitions = 0
        self.tx_losses = 0
        self.rx_misses = 0

    @property
    def client_ips(self) -> tuple[str, ...]:
        return tuple(sorted(self._clients))

    def models(self, ip: str) -> bool:
        """True when ``ip`` has a channel process."""
        return ip in self._clients

    def _advance(self, state: _ClientChannel, ip: str, now: float) -> None:
        target = int(now / self.plan.epoch_s)
        while state.epoch < target:
            state.epoch += 1
            was_bad = state.chain.bad
            bad = state.chain.step()
            if bad == was_bad:
                continue
            at = state.epoch * self.plan.epoch_s
            self.transitions += 1
            self.obs.event(
                at, "channel.transition",
                client=ip, state="bad" if bad else "good",
            )
            self.obs.inc(
                "channel.transitions",
                client=ip, to="bad" if bad else "good",
            )
            if bad:
                state.bad_since = at
            else:
                if state.bad_since is not None:
                    self.obs.span(
                        state.bad_since, at, "bad", f"channel {ip}",
                    )
                state.bad_since = None

    def state_good(self, client_ip: str, now: float) -> bool:
        """Current channel state of one client (True = good).

        Unmodeled addresses (the AP, servers, the proxy) are always
        good — the model covers the mobile clients only.
        """
        state = self._clients.get(client_ip)
        if state is None:
            return True
        self._advance(state, client_ip, now)
        return not state.chain.bad

    def _frame_lost(self, state: _ClientChannel, ip: str, now: float) -> bool:
        self._advance(state, ip, now)
        loss = state.chain.loss_rate
        return loss > 0.0 and bool(state.loss_rng.random() < loss)

    def tx_blocked(self, now: float, packet: Packet) -> bool:
        """Sender-side check: a modeled client's uplink frame fades."""
        state = self._clients.get(packet.src.ip)
        if state is None:
            return False
        if self._frame_lost(state, packet.src.ip, now):
            self.tx_losses += 1
            return True
        return False

    def rx_blocked(self, now: float, client_ip: str) -> bool:
        """Receiver-side check: a frame toward ``client_ip`` fades."""
        state = self._clients.get(client_ip)
        if state is None:
            return False
        if self._frame_lost(state, client_ip, now):
            self.rx_misses += 1
            return True
        return False
