"""Driver integration: warm-cache artifacts perform zero simulations."""

import pytest

from repro.experiments import figures
from repro.experiments.baselines import psm_comparison
from repro.experiments.tables import drop_effect_dummynet
from repro.sweep import ResultCache, SweepEngine


class TestWarmCacheDrivers:
    def test_warm_figure6_runs_zero_simulations(self, tmp_path, monkeypatch):
        """Cheap tier-1 stand-in for the figure-4 acceptance test."""
        monkeypatch.setattr(figures, "FIGURE6_EARLY_MS", (0, 6))
        kwargs = dict(seed=0, quick=True)
        cold_engine = SweepEngine(cache=ResultCache(tmp_path))
        cold = figures.figure6(engine=cold_engine, **kwargs)
        assert cold_engine.last_report.executed == 2

        warm_engine = SweepEngine(cache=ResultCache(tmp_path))
        warm = figures.figure6(engine=warm_engine, **kwargs)
        report = warm_engine.last_report
        assert report.executed == 0
        assert report.cache_hits == report.total == 2
        assert warm == cold

    @pytest.mark.slow
    def test_warm_figure4_quick_runs_zero_simulations(self, tmp_path):
        """The acceptance criterion, verbatim: a warm-cache
        ``repro figure 4 --quick`` performs zero simulation runs."""
        cold_engine = SweepEngine(cache=ResultCache(tmp_path))
        cold = figures.figure4(seed=1, quick=True, engine=cold_engine)
        assert cold_engine.last_report.executed == 15

        warm_engine = SweepEngine(cache=ResultCache(tmp_path))
        warm = figures.figure4(seed=1, quick=True, engine=warm_engine)
        report = warm_engine.last_report
        assert report.executed == 0
        assert report.cache_hits == report.total == 15
        assert warm == cold

    def test_warm_pareto_quick_runs_zero_simulations(self, tmp_path):
        """The policy-family acceptance criterion: a warm-cache
        ``repro figure pareto --policy all --quick`` performs zero
        simulations. The driver issues *two* sweeps (sim rows, then
        model rows), so the assertion must cover every report of the
        run — ``last_report`` alone only sees the model sweep."""
        kwargs = dict(seed=0, quick=True)
        cold_engine = SweepEngine(cache=ResultCache(tmp_path))
        cold = figures.pareto(engine=cold_engine, **kwargs)
        # 3 policies simulated + (3 policies + DP optimum) modeled.
        assert [r.executed for r in cold_engine.reports] == [3, 4]

        warm_engine = SweepEngine(cache=ResultCache(tmp_path))
        warm = figures.pareto(engine=warm_engine, **kwargs)
        assert len(warm_engine.reports) == 2
        for report in warm_engine.reports:
            assert report.executed == 0
            assert report.cache_hits == report.total
        assert warm == cold

        sim = [row for row in warm if row["source"] == "sim"]
        model = [row for row in warm if row["source"] == "model"]
        assert [row["policy"] for row in sim] == ["dynamic", "channel", "joint"]
        assert [row["policy"] for row in model] == [
            "dynamic", "channel", "joint", "optimal",
        ]
        # The DP optimum anchors the model front from below.
        costs = {row["policy"]: row["mean_total_cost"] for row in model}
        assert costs["optimal"] <= min(costs.values()) + 1e-9

    def test_dummynet_quick_kwarg_shrinks_the_transfer(self, tmp_path):
        engine = SweepEngine(cache=ResultCache(tmp_path))
        row = drop_effect_dummynet(seed=0, quick=True, engine=engine)
        assert row["slowdown_fraction"] > 0
        # quick uses a 1 MiB transfer; both runs executed, none cached.
        assert engine.last_report.executed == 2

        warm = SweepEngine(cache=ResultCache(tmp_path))
        again = drop_effect_dummynet(seed=0, quick=True, engine=warm)
        assert warm.last_report.executed == 0
        assert again == row

    def test_psm_comparison_caches_through_the_engine(self, tmp_path):
        engine = SweepEngine(cache=ResultCache(tmp_path))
        rows = psm_comparison(seed=0, quick=True, engine=engine)
        assert [row["policy"] for row in rows] == ["naive", "psm", "proxy"]
        warm = SweepEngine(cache=ResultCache(tmp_path))
        again = psm_comparison(seed=0, quick=True, engine=warm)
        assert warm.last_report.executed == 0
        assert again == rows
