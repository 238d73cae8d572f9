"""The scheduled work of the kernel-equivalence configs, pinned exactly.

The kernel goldens pin what a run outputs; these pin how much work it
schedules to get there: the heap pushes of its one ``Simulator.run``
(``Simulator._seq``, read on return). The count is deterministic, so it
moves only when a change schedules different work, and such a change
must update the pin on purpose.
"""

import pytest

from repro.experiments.runner import run_experiment
from repro.sim.core import Simulator
from tests.sim.test_kernel_equivalence import SCENARIOS

#: Heap pushes per run of each kernel-equivalence config.
PUSHES = {"static": 1168, "dynamic": 2166, "dynamic_faults": 1643}


@pytest.fixture
def pushes(monkeypatch):
    """Wraps ``Simulator.run``; yields the list that gets each run
    simulator's push count on return."""
    original = Simulator.run
    counts: list[int] = []

    def run(sim, until=None):
        original(sim, until)
        counts.append(sim._seq)

    monkeypatch.setattr(Simulator, "run", run)
    return counts


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_heap_pushes_per_run_are_pinned(name, pushes):
    run_experiment(SCENARIOS[name]())
    assert pushes == [PUSHES[name]]
