"""Warm-pool unit tests: chunking math, registry sync, pool sizing.

These cover the pure logic of :mod:`repro.sweep.pool` without spawning
workers (executor creation is lazy, so a :class:`WarmPool` object is
cheap); the end-to-end dispatch paths — including rebuild after a dead
worker — are exercised by the engine's parallel tests.
"""

import pytest

from repro.errors import SweepError
from repro.sweep import pool as pool_mod
from repro.sweep.pool import CHUNKS_PER_WORKER, WarmPool, chunk_runs, shared_pool
from repro.sweep.tasks import task_targets


class TestChunkRuns:
    def test_empty_and_negative_counts_yield_no_chunks(self):
        assert chunk_runs(0, 4) == []
        assert chunk_runs(-3, 4) == []

    def test_bounds_are_contiguous_and_cover_every_run(self):
        for count in (1, 2, 7, 15, 16, 100):
            for workers in (1, 2, 4, 8):
                bounds = chunk_runs(count, workers)
                assert bounds[0][0] == 0
                assert bounds[-1][1] == count
                for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                    assert stop == start
                assert all(stop > start for start, stop in bounds)

    def test_chunk_count_targets_chunks_per_worker(self):
        bounds = chunk_runs(100, 2)
        assert len(bounds) == 2 * CHUNKS_PER_WORKER

    def test_never_more_chunks_than_runs(self):
        assert len(chunk_runs(3, 8)) == 3

    def test_sizes_differ_by_at_most_one(self):
        for count, workers in ((15, 2), (17, 4), (101, 8)):
            sizes = [stop - start for start, stop in chunk_runs(count, workers)]
            assert max(sizes) - min(sizes) <= 1


class TestTaskTargets:
    def test_returns_registered_targets(self):
        targets = task_targets({"experiment"})
        assert targets == {"experiment": "repro.sweep.tasks:_experiment"}

    def test_unknown_name_fails_in_the_parent(self):
        with pytest.raises(SweepError, match="unknown sweep task"):
            task_targets({"experiment", "no-such-task"})


class TestSharedPool:
    @pytest.fixture(autouse=True)
    def _isolate_singleton(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_shared", None)

    def test_first_call_creates_the_pool(self):
        pool = shared_pool(2)
        assert isinstance(pool, WarmPool)
        assert pool.workers == 2
        assert not pool.alive  # executor is lazy: no workers spawned yet

    def test_same_size_reuses_the_pool(self):
        assert shared_pool(2) is shared_pool(2)

    def test_larger_request_rebuilds_bigger(self):
        small = shared_pool(1)
        big = shared_pool(3)
        assert big is not small
        assert big.workers == 3

    def test_smaller_request_keeps_the_larger_pool(self):
        big = shared_pool(4)
        assert shared_pool(2) is big
