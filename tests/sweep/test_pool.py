"""Warm-pool unit tests: chunking math, pool sizing, a dead worker.

Most cover the pure logic of :mod:`repro.sweep.pool` without spawning
workers (executor creation is lazy, so a :class:`WarmPool` object is
cheap); one spawns a single worker and kills it. The end-to-end
dispatch paths — including the engine's shutdown of the pool after a
dead worker — are exercised by the engine's parallel tests
(``tests/sweep/test_engine.py``).
"""

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.sweep import pool as pool_mod
from repro.sweep.pool import CHUNKS_PER_WORKER, WarmPool, chunk_runs, shared_pool

from tests.sweep._fixtures import die, double


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


class TestSharedPool:
    @pytest.fixture(autouse=True)
    def _isolate_singleton(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_shared", None)

    def test_first_call_creates_the_pool(self):
        pool = shared_pool(2)
        assert isinstance(pool, WarmPool)
        assert pool.workers == 2

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


class TestDeadWorker:
    def test_a_chunk_submitted_after_the_break_fails_in_its_future(self):
        """The engine reads every failure from a future, so a submit
        to a broken executor must not raise."""
        pool = WarmPool(1)
        try:
            with pytest.raises(BrokenProcessPool):
                pool.submit_chunk([(die, {"x": 0})]).result(timeout=60)
            late = pool.submit_chunk([(double, {"x": 1})])
            with pytest.raises(BrokenProcessPool):
                late.result(timeout=60)
        finally:
            pool.shutdown()
