"""Seeded client roaming on an epoch grid.

One decision process for the whole campus: every ``epoch_s`` it visits
each client in index order and rolls that client's private
``mobility:{ip}`` stream once. A roll under ``roam_rate`` draws a
uniformly distributed *other* cell from the same stream and asks the
:class:`~repro.campus.handoff.HandoffCoordinator` to migrate the
client. Because each stream is exclusive and self-contained, one
client's trajectory is a pure function of ``(plan, seed, ip)`` — other
clients' roams, channel fades, and traffic cannot perturb it.

When the plan is disabled the model starts no process and creates no
streams, so a mobility-free campus run draws exactly the same random
numbers as the pre-campus sim.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.campus.topology import MOBILITY_STREAM_PREFIX, MobilityPlan
from repro.errors import ConfigurationError
from repro.obs.recorder import NullRecorder, Recorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator
    from repro.sim.random import RngStreams


def cell_label(index: int) -> str:
    """The obs label of campus cell ``index``."""
    return f"c{index}"


class MobilityModel:
    """Tracks which cell each client is in and roams them on schedule."""

    def __init__(
        self,
        sim: "Simulator",
        plan: Optional[MobilityPlan],
        n_cells: int,
        client_ips: Sequence[str],
        streams: "RngStreams",
        on_roam: Callable[[str, int, int], None],
        obs: Optional[Recorder] = None,
    ) -> None:
        if n_cells < 1:
            raise ConfigurationError(f"campus needs at least one cell: {n_cells!r}")
        self.sim = sim
        self.plan = plan
        self.n_cells = n_cells
        self.obs = obs if obs is not None else NullRecorder()
        self._on_roam = on_roam
        #: Clients in fixed index order — the per-epoch visit order.
        self._client_ips = list(client_ips)
        #: Initial placement: client i starts in cell i % n_cells.
        self._cell_of: dict[str, int] = {
            ip: index % n_cells for index, ip in enumerate(self._client_ips)
        }
        #: Per-client residency timeline: [(time, cell_index), ...].
        self._timeline: dict[str, list[tuple[float, int]]] = {
            ip: [(0.0, cell)] for ip, cell in self._cell_of.items()
        }
        self.roams = 0
        self._rngs = None
        if plan is not None and plan.enabled:
            if n_cells < 2:
                raise ConfigurationError(
                    "mobility needs at least two cells to roam between"
                )
            self._rngs = [
                streams.get(f"{MOBILITY_STREAM_PREFIX}{ip}")
                for ip in self._client_ips
            ]

    def start(self) -> None:
        """Start the epoch process (no-op when mobility is disabled)."""
        if self._rngs is not None:
            self.sim.process(self._run())

    def cell_of(self, ip: str) -> int:
        """Index of the cell ``ip`` is currently assigned to."""
        return self._cell_of[ip]

    def residency(self) -> dict[str, tuple[tuple[float, str], ...]]:
        """Per-client residency timelines as ``(time, cell_label)`` steps."""
        return {
            ip: tuple((at, cell_label(cell)) for at, cell in steps)
            for ip, steps in self._timeline.items()
        }

    def _run(self):
        assert self.plan is not None and self._rngs is not None
        epoch_s = self.plan.epoch_s
        roam_rate = self.plan.roam_rate
        while True:
            yield self.sim.timeout(epoch_s)
            now = self.sim.now
            for ip, rng in zip(self._client_ips, self._rngs):
                # Exactly one decision draw per client per epoch.
                roll = rng.random()
                if roll >= roam_rate:
                    continue
                current = self._cell_of[ip]
                offset = int(rng.integers(1, self.n_cells))
                target = (current + offset) % self.n_cells
                self._cell_of[ip] = target
                self._timeline[ip].append((now, target))
                self.roams += 1
                self.obs.event(
                    now, "campus.roam",
                    client=ip,
                    from_cell=cell_label(current),
                    to_cell=cell_label(target),
                )
                self.obs.inc(
                    "campus.roams",
                    client=ip, to_cell=cell_label(target),
                )
                self._on_roam(ip, current, target)
