"""Scheduling-policy family: queue-aware, channel-aware, and joint.

The paper's dynamic scheduler grants a burst slot to every backlogged
client each interval — implicitly assuming a single stable channel.
Over a time-varying channel that wastes both airtime and client energy:
frames burst at a client in a fade are lost and retransmitted later.
Following the delay-optimal scheduling literature for multi-state
channels (arXiv 1606.00952, 1807.10128), admission must condition on
*both* queue backlog and channel state; the optimal policies there have
a threshold structure — serve a bad-channel client only once its
backlog passes a level that makes waiting costlier than the bad-state
transmission.

This module defines the :class:`SchedulingPolicy` protocol the
:class:`~repro.core.scheduler.DynamicScheduler` consults per interval,
three online policies (the paper's queue-only policy, a channel-aware
deferral policy, and the joint backlog/channel threshold policy), and a
small discrete slotted model (:class:`PolicyInstance`,
:func:`rollout`, :func:`execute_grants`) shared with the offline
dynamic-programming oracle in :mod:`repro.energy.optimal` — the
differential test harness compares every online policy against that
oracle on the *same* cost accounting.

Policies are pure: :meth:`SchedulingPolicy.admit` maps a snapshot of
client views to an admitted-key tuple and keeps no state. Callers (the
scheduler, or :func:`rollout`) own the deferral counters.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, runtime_checkable

from repro.errors import ConfigurationError, SchedulingError

#: The online policies selectable via ``--policy`` / make_policy().
POLICY_NAMES = ("dynamic", "channel", "joint")


@dataclass(frozen=True, slots=True)
class ClientView:
    """One client's scheduling-relevant state at an admission point."""

    key: str  #: stable identity (client IP in the simulator)
    backlog: int  #: bytes (scheduler) or packets (discrete model)
    channel_good: bool = True  #: current channel state, good/bad
    deferred: int = 0  #: consecutive admission points skipped by policy

    def __post_init__(self) -> None:
        if self.backlog < 0:
            raise SchedulingError(f"negative backlog: {self.backlog!r}")
        if self.deferred < 0:
            raise SchedulingError(f"negative deferral count: {self.deferred!r}")


@runtime_checkable
class SchedulingPolicy(Protocol):
    """Admission policy consulted once per scheduling interval."""

    @property
    def name(self) -> str: ...

    def admit(self, views: Sequence[ClientView]) -> tuple[str, ...]:
        """Keys admitted this interval, highest service priority first.

        Only backlogged clients may appear; a key left out is deferred
        to a later interval. Must be pure and deterministic.
        """
        ...


def _by_pressure(views: Sequence[ClientView]) -> list[ClientView]:
    """Deterministic priority order: deepest backlog first, key ties."""
    return sorted(views, key=lambda view: (-view.backlog, view.key))


@dataclass(frozen=True, slots=True)
class PaperDynamicPolicy:
    """The paper's §3.2.1 policy: every backlogged client is admitted.

    Channel state is ignored — this is the baseline the channel-aware
    variants are measured against, and the default that keeps existing
    experiments byte-identical.
    """

    @property
    def name(self) -> str:
        return "dynamic"

    def admit(self, views: Sequence[ClientView]) -> tuple[str, ...]:
        return tuple(
            view.key for view in _by_pressure(views) if view.backlog > 0
        )


@dataclass(frozen=True, slots=True)
class ChannelAwarePolicy:
    """Defer bad-channel clients, but never starve them.

    A backlogged client in the bad state is skipped for up to
    ``max_defer`` consecutive admission points (its frames would mostly
    die on the air); once overdue it is admitted regardless, bounding
    the added delay to ``max_defer`` intervals.
    """

    max_defer: int = 2

    def __post_init__(self) -> None:
        if self.max_defer < 0:
            raise SchedulingError(
                f"max_defer must be non-negative: {self.max_defer!r}"
            )

    @property
    def name(self) -> str:
        return "channel"

    def admit(self, views: Sequence[ClientView]) -> tuple[str, ...]:
        backlogged = [view for view in views if view.backlog > 0]
        good = [view for view in backlogged if view.channel_good]
        overdue = [
            view
            for view in backlogged
            if not view.channel_good and view.deferred >= self.max_defer
        ]
        return tuple(
            view.key for view in _by_pressure(good) + _by_pressure(overdue)
        )


@dataclass(frozen=True, slots=True)
class JointThresholdPolicy:
    """Joint queue+channel policy with the 1807.10128 threshold form.

    Good-channel clients are always admitted. A bad-channel client is
    admitted only once its backlog reaches ``threshold`` — the point
    where the accumulating holding (delay) cost outweighs the extra
    cost of transmitting through the bad state.
    """

    threshold: int = 1

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise SchedulingError(
                f"threshold must be non-negative: {self.threshold!r}"
            )

    @property
    def name(self) -> str:
        return "joint"

    def admit(self, views: Sequence[ClientView]) -> tuple[str, ...]:
        backlogged = [view for view in views if view.backlog > 0]
        good = [view for view in backlogged if view.channel_good]
        heavy = [
            view
            for view in backlogged
            if not view.channel_good and view.backlog >= self.threshold
        ]
        return tuple(
            view.key for view in _by_pressure(good) + _by_pressure(heavy)
        )


def make_policy(
    name: str,
    threshold: int = 1,
    max_defer: int = 2,
) -> SchedulingPolicy:
    """Policy factory behind ``--policy``/``ExperimentConfig.policy``.

    ``threshold`` parameterizes the joint policy (bytes in the
    simulator, packets in the discrete model); ``max_defer`` the
    channel-aware one. Unused parameters are ignored.
    """
    if name == "dynamic":
        return PaperDynamicPolicy()
    if name == "channel":
        return ChannelAwarePolicy(max_defer=max_defer)
    if name == "joint":
        return JointThresholdPolicy(threshold=threshold)
    raise ConfigurationError(
        f"unknown policy {name!r}; known: {', '.join(POLICY_NAMES)}"
    )


# ---------------------------------------------------------------------------
# Discrete slotted model (shared with the DP oracle)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyInstance:
    """A small finite-horizon scheduling instance over a known channel.

    Time is slotted; at most one client is served per slot, delivering
    one packet at a channel-state-dependent energy cost. Every packet
    still queued after service pays ``hold_cost`` per slot (the delay
    proxy), and packets left at the horizon pay ``unserved_penalty``.
    The channel realization is part of the instance, so the offline DP
    optimum over it is a true clairvoyant lower bound for every online
    policy evaluated on the same instance.
    """

    arrivals: tuple[tuple[int, ...], ...]  #: [slot][client] packet arrivals
    channel_good: tuple[tuple[bool, ...], ...]  #: [slot][client] state
    tx_cost_good: float = 1.0
    tx_cost_bad: float = 4.0
    hold_cost: float = 1.0
    unserved_penalty: float = 8.0

    def __post_init__(self) -> None:
        if not self.arrivals:
            raise ConfigurationError("instance needs at least one slot")
        if len(self.channel_good) != len(self.arrivals):
            raise ConfigurationError(
                "arrivals and channel_good cover different horizons"
            )
        width = len(self.arrivals[0])
        if width == 0:
            raise ConfigurationError("instance needs at least one client")
        for slot, (arr, chan) in enumerate(
            zip(self.arrivals, self.channel_good)
        ):
            if len(arr) != width or len(chan) != width:
                raise ConfigurationError(
                    f"slot {slot}: ragged arrivals/channel rows"
                )
            for count in arr:
                if count < 0:
                    raise ConfigurationError(
                        f"slot {slot}: negative arrival count {count!r}"
                    )
        for label, value in (
            ("tx_cost_good", self.tx_cost_good),
            ("tx_cost_bad", self.tx_cost_bad),
            ("hold_cost", self.hold_cost),
            ("unserved_penalty", self.unserved_penalty),
        ):
            if value < 0:
                raise ConfigurationError(f"{label} must be non-negative")

    @property
    def horizon(self) -> int:
        return len(self.arrivals)

    @property
    def n_clients(self) -> int:
        return len(self.arrivals[0])

    def tx_cost(self, slot: int, client: int) -> float:
        """Energy cost of serving ``client`` in ``slot``."""
        return (
            self.tx_cost_good
            if self.channel_good[slot][client]
            else self.tx_cost_bad
        )


@dataclass(frozen=True)
class PolicyOutcome:
    """The fully-accounted result of one grant sequence."""

    grants: tuple[Optional[int], ...]
    total_cost: float
    energy_cost: float
    holding_cost: float
    penalty_cost: float
    served: int
    arrived: int
    mean_delay_slots: float


def execute_grants(
    instance: PolicyInstance, grants: Sequence[Optional[int]]
) -> PolicyOutcome:
    """Account one grant-per-slot sequence against an instance.

    This is the single cost model shared by the heuristic rollouts and
    the DP oracle, so differential comparisons can never drift apart on
    accounting. A grant to an empty queue (or out of range) is a bug in
    the caller and raises.
    """
    if len(grants) != instance.horizon:
        raise SchedulingError(
            f"expected {instance.horizon} grants, got {len(grants)}"
        )
    n = instance.n_clients
    queues = [0] * n
    waiting: list[deque[int]] = [deque() for _ in range(n)]
    energy = 0.0
    holding = 0.0
    served = 0
    arrived = 0
    delay_total = 0
    for slot in range(instance.horizon):
        for client, count in enumerate(instance.arrivals[slot]):
            queues[client] += count
            arrived += count
            for _ in range(count):
                waiting[client].append(slot)
        grant = grants[slot]
        if grant is not None:
            if grant < 0 or grant >= n:
                raise SchedulingError(f"slot {slot}: grant {grant!r} out of range")
            if queues[grant] == 0:
                raise SchedulingError(
                    f"slot {slot}: grant to client {grant} with empty queue"
                )
            queues[grant] -= 1
            energy += instance.tx_cost(slot, grant)
            served += 1
            # Waited from arrival to (and including) the service slot.
            delay_total += slot - waiting[grant].popleft() + 1
        holding += instance.hold_cost * sum(queues)
    leftover = sum(queues)
    penalty = instance.unserved_penalty * leftover
    for client in range(n):
        for arrival_slot in waiting[client]:
            delay_total += instance.horizon - arrival_slot
    mean_delay = delay_total / arrived if arrived else 0.0
    return PolicyOutcome(
        grants=tuple(grants),
        total_cost=energy + holding + penalty,
        energy_cost=energy,
        holding_cost=holding,
        penalty_cost=penalty,
        served=served,
        arrived=arrived,
        mean_delay_slots=mean_delay,
    )


def rollout(
    instance: PolicyInstance, policy: SchedulingPolicy
) -> PolicyOutcome:
    """Run an online policy over an instance slot by slot.

    Per slot the policy sees each client's current backlog, the
    *current* channel state (online policies are not clairvoyant — the
    future realization stays hidden), and its deferral count; the
    highest-priority admitted client is served. Deferral counts policy
    exclusions only: a client admitted but outprioritized keeps its
    counter at zero.
    """
    n = instance.n_clients
    queues = [0] * n
    deferred = [0] * n
    grants: list[Optional[int]] = []
    for slot in range(instance.horizon):
        for client, count in enumerate(instance.arrivals[slot]):
            queues[client] += count
        views = [
            ClientView(
                key=str(client),
                backlog=queues[client],
                channel_good=instance.channel_good[slot][client],
                deferred=deferred[client],
            )
            for client in range(n)
            if queues[client] > 0
        ]
        order = policy.admit(views)
        admitted = set(order)
        grant: Optional[int] = None
        for key in order:
            client = int(key)
            if queues[client] > 0:
                grant = client
                break
        for client in range(n):
            if queues[client] > 0 and str(client) not in admitted:
                deferred[client] += 1
            else:
                deferred[client] = 0
        if grant is not None:
            queues[grant] -= 1
        grants.append(grant)
    return execute_grants(instance, grants)


#: Random instances: each slot a client gets a batch of 1..MAX_BATCH
#: packets with probability P_ARRIVAL, and its Gilbert-Elliott channel
#: turns bad with P_GOOD_BAD and good again with P_BAD_GOOD.
P_ARRIVAL = 0.4
MAX_BATCH = 2
P_GOOD_BAD = 0.3
P_BAD_GOOD = 0.5


def random_instance(
    seed: int, n_clients: int = 3, horizon: int = 8
) -> PolicyInstance:
    """A seeded random instance (Bernoulli arrivals, G-E channel) at
    :class:`PolicyInstance`'s default costs.

    Draws come from a named :class:`~repro.sim.random.RngStreams`
    stream, so an instance is a pure function of its parameters — the
    differential suite and the Pareto model rows replay byte-identical.
    """
    from repro.sim.random import RngStreams

    if n_clients < 1 or horizon < 1:
        raise ConfigurationError("instance needs >= 1 client and >= 1 slot")
    rng = RngStreams(seed=seed).get("policy-instance")
    arrivals: list[tuple[int, ...]] = []
    channel: list[tuple[bool, ...]] = []
    good = [True] * n_clients
    for _ in range(horizon):
        row: list[int] = []
        for _client in range(n_clients):
            count = 0
            if rng.random() < P_ARRIVAL:
                count = 1 + int(rng.integers(0, MAX_BATCH))
            row.append(count)
        state_row: list[bool] = []
        for client in range(n_clients):
            flip = rng.random()
            if good[client]:
                if flip < P_GOOD_BAD:
                    good[client] = False
            elif flip < P_BAD_GOOD:
                good[client] = True
            state_row.append(good[client])
        arrivals.append(tuple(row))
        channel.append(tuple(state_row))
    return PolicyInstance(arrivals=tuple(arrivals), channel_good=tuple(channel))
