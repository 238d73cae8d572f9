"""Declarative multi-cell campus topology.

The paper's testbed is one access point and a handful of laptops; the
campus layer scales that design out: N independent cells, each with its
own medium, AP, and proxy scheduler shard, plus a seeded mobility
process that roams clients between cells on an epoch grid.

Like :class:`~repro.net.channel.ChannelPlan`, the topology is a frozen
value object — the sweep engine content-addresses runs by their
canonical config JSON, so everything that changes physics is a field.

Determinism contract (same "exclusive stream" rule the channel model
uses): each client's roam decisions draw only from its own reserved
stream ``mobility:{ip}``, exactly one decision draw per epoch, so the
trajectory of one client is a pure function of ``(plan, seed, ip)`` and
disabling mobility removes the streams entirely — which is what makes a
1-cell campus replay byte-identical to the pre-campus sim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.units import ms

#: Stream-name prefix reserved for the mobility model (exclusive).
MOBILITY_STREAM_PREFIX = "mobility:"

#: Upper bound on cells — a campus, not a continent; keeps layouts sane.
MAX_CELLS = 32

#: Handoff queue-migration policies.
HANDOFF_POLICIES = ("transfer", "drain")


@dataclass(frozen=True)
class MobilityPlan:
    """Seeded roaming process shared by every client.

    Each epoch, each client independently roams with probability
    ``roam_rate`` to a uniformly chosen *other* cell. One decision draw
    per client per epoch regardless of outcome, so draw counts depend
    only on elapsed epochs — never on other clients' trajectories.
    """

    roam_rate: float = 0.0
    epoch_s: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.roam_rate <= 1.0:
            raise ConfigurationError(
                f"mobility roam_rate must be a probability: {self.roam_rate!r}"
            )
        if self.epoch_s <= 0:
            raise ConfigurationError(
                f"mobility epoch must be positive: {self.epoch_s!r}"
            )

    @property
    def enabled(self) -> bool:
        """True when the plan actually moves anyone."""
        return self.roam_rate > 0.0


@dataclass(frozen=True)
class HandoffSpec:
    """How a roam migrates client state between proxy shards.

    ``transfer`` moves the old shard's pending UDP backlog into the new
    shard's queue (bytes survive, latency is charged); ``drain`` drops
    it (the new cell starts clean). TCP splits never survive a handoff
    — the split connections are torn down and the client re-fetches —
    matching the paper's observation that the proxy holds per-client
    soft state only. ``latency_s`` is the radio gap: the client is
    attached to neither medium while it elapses, and frames addressed
    to it during the gap are missed (fed to the energy model like any
    other miss).
    """

    policy: str = "transfer"
    latency_s: float = ms(20)

    def __post_init__(self) -> None:
        if self.policy not in HANDOFF_POLICIES:
            raise ConfigurationError(
                f"unknown handoff policy {self.policy!r}; "
                f"expected one of {', '.join(HANDOFF_POLICIES)}"
            )
        if self.latency_s < 0:
            raise ConfigurationError(
                f"handoff latency must be non-negative: {self.latency_s!r}"
            )


@dataclass(frozen=True)
class CampusTopology:
    """N cells, an optional mobility process, and a handoff policy.

    ``n_cells == 1`` with mobility absent (or disabled) is the
    *trivial* campus: scenario construction collapses to the legacy
    single-AP build and replays stay byte-identical.
    """

    n_cells: int = 1
    mobility: Optional[MobilityPlan] = None
    handoff: HandoffSpec = field(default_factory=HandoffSpec)

    def __post_init__(self) -> None:
        if not isinstance(self.n_cells, int) or isinstance(self.n_cells, bool):
            raise ConfigurationError(
                f"campus n_cells must be an int: {self.n_cells!r}"
            )
        if not 1 <= self.n_cells <= MAX_CELLS:
            raise ConfigurationError(
                f"campus n_cells must be in [1, {MAX_CELLS}]: {self.n_cells!r}"
            )
        if self.n_cells == 1 and self.mobility is not None and self.mobility.enabled:
            raise ConfigurationError(
                "mobility needs at least two cells to roam between"
            )
