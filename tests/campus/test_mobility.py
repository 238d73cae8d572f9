"""MobilityModel: seeded roaming, exclusive streams, disabled = free."""

import pytest

from repro.campus import MOBILITY_STREAM_PREFIX, MobilityModel, MobilityPlan
from repro.errors import ConfigurationError
from repro.sim.core import Simulator
from repro.sim.random import RngStreams

IPS = ["10.0.1.1", "10.0.1.2", "10.0.1.3"]


def _roam_log(seed: int, until: float = 3.0) -> list[tuple]:
    sim = Simulator()
    streams = RngStreams(seed=seed)
    log: list[tuple] = []

    def on_roam(ip, old, new):
        log.append((round(sim.now, 9), ip, old, new))

    model = MobilityModel(
        sim,
        MobilityPlan(roam_rate=0.5, epoch_s=0.25),
        3,
        IPS,
        streams,
        on_roam=on_roam,
    )
    model.start()
    sim.run(until=until)
    return log


def test_same_seed_same_trajectory():
    first = _roam_log(seed=11)
    assert first, "roam_rate=0.5 over 12 epochs should roam someone"
    assert first == _roam_log(seed=11)


def test_different_seed_different_trajectory():
    assert _roam_log(seed=11) != _roam_log(seed=12)


def test_initial_placement_round_robin():
    sim = Simulator()
    model = MobilityModel(
        sim, None, 2, IPS, RngStreams(seed=0), on_roam=lambda *a: None
    )
    residency = model.residency()
    assert [residency[ip] for ip in IPS] == [
        ((0.0, "c0"),), ((0.0, "c1"),), ((0.0, "c0"),),
    ]


def test_disabled_plan_creates_no_streams():
    """No mobility → no reserved streams, no process: replays that
    predate the campus layer stay byte-identical."""
    sim = Simulator()
    streams = RngStreams(seed=0)
    for plan in (None, MobilityPlan(roam_rate=0.0)):
        model = MobilityModel(
            sim, plan, 2, IPS, streams, on_roam=lambda *a: None
        )
        model.start()
    sim.run(until=5.0)
    assert not any(
        name.startswith(MOBILITY_STREAM_PREFIX) for name in streams._streams
    )


def test_enabled_needs_two_cells():
    with pytest.raises(ConfigurationError):
        MobilityModel(
            Simulator(),
            MobilityPlan(roam_rate=0.5),
            1,
            IPS,
            RngStreams(seed=0),
            on_roam=lambda *a: None,
        )


def test_roam_targets_are_other_cells():
    sim = Simulator()
    streams = RngStreams(seed=3)
    moves: list[tuple] = []
    model = MobilityModel(
        sim,
        MobilityPlan(roam_rate=1.0, epoch_s=0.5),
        4,
        IPS,
        streams,
        on_roam=lambda ip, old, new: moves.append((old, new)),
    )
    model.start()
    sim.run(until=4.0)
    assert moves
    assert all(old != new for old, new in moves)
    assert all(0 <= new < 4 for _, new in moves)


def test_residency_timeline_tracks_roams():
    sim = Simulator()
    streams = RngStreams(seed=5)
    model = MobilityModel(
        sim,
        MobilityPlan(roam_rate=1.0, epoch_s=1.0),
        2,
        IPS[:2],
        streams,
        on_roam=lambda *a: None,
    )
    model.start()
    sim.run(until=2.5)
    residency = model.residency()
    for ip in IPS[:2]:
        steps = residency[ip]
        assert steps[0][0] == 0.0
        # roam_rate=1.0: every epoch flips the cell.
        assert len(steps) == 3
        labels = [label for _, label in steps]
        assert all(label in ("c0", "c1") for label in labels)
        assert all(a != b for a, b in zip(labels, labels[1:]))
