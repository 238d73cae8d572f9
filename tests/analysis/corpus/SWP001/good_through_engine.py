# repro: module-path=experiments/figures.py
"""GOOD: the driver expands a SweepSpec and runs it through the engine."""

from repro.experiments.runner import video_only
from repro.sweep import SweepEngine, SweepSpec


def figure_swept(seed: int = 0) -> list[dict]:
    rates = (56, 256)
    configs = [video_only([rate] * 4, seed=seed) for rate in rates]
    labels = [{"rate": rate} for rate in rates]
    outcome = SweepEngine().run(
        SweepSpec.experiments("figure_swept", configs)
    )
    return [
        {"rate": label["rate"], "saved": result.summary.avg_saved_pct}
        for label, result in zip(labels, outcome.results)
    ]
