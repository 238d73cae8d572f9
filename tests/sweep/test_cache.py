"""Content-addressed result cache: hits, misses, invalidation, corruption."""

import dataclasses
import pickle

from repro.experiments.runner import ClientSpec, ExperimentConfig
from repro.sweep import ResultCache, SweepEngine, SweepSpec, run_key
from repro.sweep import cache as cache_module

from tests.sweep._fixtures import double, maybe_none


def _config(seed: int = 0) -> ExperimentConfig:
    return ExperimentConfig(
        clients=[ClientSpec("web")], burst_interval_s=0.5,
        duration_s=5.0, seed=seed,
    )


class TestRunKey:
    def test_stable_for_equal_params(self):
        assert run_key("experiment", {"config": _config()}) == run_key(
            "experiment", {"config": _config()}
        )

    def test_config_change_changes_the_key(self):
        assert run_key("experiment", {"config": _config(0)}) != run_key(
            "experiment", {"config": _config(1)}
        )

    def test_task_name_is_part_of_the_key(self):
        params = {"x": 1}
        assert run_key("test-double", params) != run_key("experiment", params)

    def test_code_fingerprint_change_changes_the_key(self, monkeypatch):
        before = run_key("test-double", {"x": 1})
        monkeypatch.setattr(
            cache_module, "code_fingerprint", lambda: "deadbeef" * 8
        )
        assert run_key("test-double", {"x": 1}) != before


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = run_key("test-double", {"x": 2})
        assert cache.get(key) is None
        cache.put(key, "test-double", 4)
        assert cache.get(key) == (4,)
        assert len(cache) == 1

    def test_cached_none_is_distinguished_from_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = run_key("test-maybe-none", {"x": 2})
        cache.put(key, "test-maybe-none", None)
        assert cache.get(key) == (None,)

    def test_corrupted_entry_is_a_miss_and_is_deleted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = run_key("test-double", {"x": 3})
        cache.put(key, "test-double", 6)
        cache.path_for(key).write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert cache.corrupt_entries == 1
        assert not cache.path_for(key).exists()

    def test_wrong_schema_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = run_key("test-double", {"x": 4})
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(
            pickle.dumps({"schema": -1, "key": key, "result": 8})
        )
        assert cache.get(key) is None
        assert cache.corrupt_entries == 1

    def test_key_mismatch_inside_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key_a = run_key("test-double", {"x": 5})
        key_b = run_key("test-double", {"x": 6})
        cache.put(key_a, "test-double", 10)
        # Simulate a mis-filed entry: key_b's slot holds key_a's payload.
        path_b = cache.path_for(key_b)
        path_b.parent.mkdir(parents=True, exist_ok=True)
        path_b.write_bytes(cache.path_for(key_a).read_bytes())
        assert cache.get(key_b) is None


class TestEngineCacheBehaviour:
    def _spec(self, xs=(1, 2, 3)):
        return SweepSpec.from_tasks(
            "cache-behaviour", double, [{"x": x} for x in xs]
        )

    def test_cold_run_populates_then_warm_run_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = SweepEngine(cache=cache)
        cold = engine.run(self._spec())
        assert cold.results == [2, 4, 6]
        assert cold.report.executed == 3
        assert cold.report.cache_hits == 0

        warm = SweepEngine(cache=ResultCache(tmp_path)).run(self._spec())
        assert warm.results == [2, 4, 6]
        assert warm.report.executed == 0
        assert warm.report.cache_hits == 3

    def test_config_change_misses_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepEngine(cache=cache).run(self._spec((1, 2)))
        outcome = SweepEngine(cache=cache).run(self._spec((1, 5)))
        assert outcome.report.cache_hits == 1
        assert outcome.report.executed == 1
        assert outcome.results == [2, 10]

    def test_code_fingerprint_change_cold_starts(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        SweepEngine(cache=cache).run(self._spec())
        monkeypatch.setattr(
            cache_module, "code_fingerprint", lambda: "0" * 64
        )
        outcome = SweepEngine(cache=cache).run(self._spec())
        assert outcome.report.cache_hits == 0
        assert outcome.report.executed == 3

    def test_corrupted_entry_is_rerun_not_crash(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = SweepEngine(cache=cache)
        engine.run(self._spec())
        key = run_key("tests.sweep._fixtures:double", {"x": 2})
        cache.path_for(key).write_bytes(b"junk")

        outcome = SweepEngine(cache=ResultCache(tmp_path)).run(self._spec())
        assert outcome.results == [2, 4, 6]
        assert outcome.report.cache_hits == 2
        assert outcome.report.executed == 1
        assert outcome.report.corrupt_cache_entries == 1

    def test_cached_none_result_counts_as_hit(self, tmp_path):
        spec = SweepSpec.from_tasks(
            "maybe-none", maybe_none, [{"x": 2}, {"x": 3}]
        )
        cache = ResultCache(tmp_path)
        SweepEngine(cache=cache).run(spec)
        warm = SweepEngine(cache=cache).run(spec)
        assert warm.results == [None, 3]
        assert warm.report.cache_hits == 2
        assert warm.report.executed == 0

    def test_dataclass_results_pickle_roundtrip(self, tmp_path):
        config = _config()
        spec = SweepSpec.experiments("one-real-run", [config])
        cache = ResultCache(tmp_path)
        cold = SweepEngine(cache=cache).run(spec)
        warm = SweepEngine(cache=cache).run(spec)
        assert warm.report.cache_hits == 1
        assert pickle.dumps(cold.results) == pickle.dumps(warm.results)
        assert dataclasses.asdict(warm.results[0].summary) == (
            dataclasses.asdict(cold.results[0].summary)
        )
