"""Every paper claim with a driver, at full scale, seed 1.

One case per :data:`repro.experiments.claims.ENTRIES` entry that has a
driver and claims (ids are the results-file names, so ``-k drop_effect``
selects the two packet-drop experiments). Each case runs the driver,
persists its rows under ``benchmarks/results/`` (plus a trajectory
entry), prints them with the claims table, and asserts every claim's
bound.
"""

import pytest

from repro.experiments.claims import ENTRIES

from benchmarks.bench_utils import check_claims, save_results

BENCHED = [entry for entry in ENTRIES if entry.driver and entry.claims]


@pytest.mark.parametrize("entry", BENCHED, ids=[e.name for e in BENCHED])
def test_bench_claims(benchmark, entry):
    rows = benchmark.pedantic(
        entry.load_driver(), kwargs={"seed": 1}, rounds=1, iterations=1
    )
    save_results(entry.name, rows)
    check_claims(entry, rows)
