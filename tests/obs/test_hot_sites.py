"""The hot call sites build a row only when the recorder keeps it.

Eight sites fire per frame, per WNIC transition or per slot: the
``medium.frame``, ``wnic.transition``, ``client.schedule-heard`` and
``proxy.burst`` events, and the ``awake``, ``burst`` and ``slot`` spans
(``slot`` from both schedulers). Each reads the recorder's
``record_events`` or ``record_spans`` first, so a run in a mode that
throws the row away never calls ``event`` or ``span`` for it, and a
``full`` run records every one of them.
"""

from collections import Counter

import pytest

from repro.campus import CampusTopology, HandoffSpec, MobilityPlan
from repro.experiments.runner import (
    ClientSpec,
    ExperimentConfig,
    run_experiment,
)
from repro.faults import FaultPlan
from repro.obs.recorder import Recorder, SimRecorder

HOT_EVENTS = {
    "medium.frame", "wnic.transition", "client.schedule-heard", "proxy.burst",
}
HOT_SPANS = {"awake", "burst", "slot"}


def _lossy_dynamic(obs_mode: str) -> ExperimentConfig:
    return ExperimentConfig(
        clients=[ClientSpec("video", video_kbps=56),
                 ClientSpec("video", video_kbps=256)],
        burst_interval_s=0.1,
        duration_s=2.0,
        warmup_s=0.2,
        start_stagger_s=0.3,
        seed=5,
        faults=FaultPlan(loss_rate=0.05),
        obs_mode=obs_mode,
    )


def _static(obs_mode: str) -> ExperimentConfig:
    return ExperimentConfig(
        clients=[ClientSpec("video", video_kbps=128)],
        burst_interval_s=0.1,
        scheduler="static",
        duration_s=1.5,
        warmup_s=0.2,
        seed=5,
        obs_mode=obs_mode,
    )


def _roaming_campus(obs_mode: str) -> ExperimentConfig:
    return ExperimentConfig(
        clients=[ClientSpec("video", video_kbps=56)] * 4,
        burst_interval_s=0.25,
        duration_s=2.0,
        warmup_s=0.2,
        start_stagger_s=0.05,
        seed=3,
        campus=CampusTopology(
            n_cells=2,
            mobility=MobilityPlan(roam_rate=0.6, epoch_s=0.2),
            handoff=HandoffSpec(policy="transfer", latency_s=0.02),
        ),
        obs_mode=obs_mode,
    )


CONFIGS = {
    "lossy_dynamic": _lossy_dynamic,
    "static": _static,
    "roaming_campus": _roaming_campus,
}


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Counts ``event`` calls by category and ``span`` calls by name on
    every recorder class (``NullRecorder`` inherits ``Recorder``'s)."""
    seen: Counter = Counter()
    for cls in (Recorder, SimRecorder):
        event, span = cls.event, cls.span

        def counted_event(self, time, category, _event=event, **fields):
            seen["event", category] += 1
            _event(self, time, category, **fields)

        def counted_span(self, start, end, name, track, _span=span, **fields):
            seen["span", name] += 1
            _span(self, start, end, name, track, **fields)

        monkeypatch.setattr(cls, "event", counted_event)
        monkeypatch.setattr(cls, "span", counted_span)
    return seen


def _hot(seen: Counter, kind: str) -> set[str]:
    names = HOT_EVENTS if kind == "event" else HOT_SPANS
    return {name for (k, name) in seen if k == kind and name in names}


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("obs_mode", ["off", "metrics"])
def test_unkept_rows_are_never_built(calls, name, obs_mode):
    run_experiment(CONFIGS[name](obs_mode))
    assert _hot(calls, "event") == set()
    assert _hot(calls, "span") == set()
    # The once-per-interval sites still report: the guard is per site.
    assert calls["span", "interval"] > 0


def test_trace_mode_builds_events_but_no_spans(calls):
    for make in CONFIGS.values():
        run_experiment(make("trace"))
    assert _hot(calls, "event") == HOT_EVENTS
    assert _hot(calls, "span") == set()


def test_full_mode_records_every_hot_row(calls):
    events: Counter = Counter()
    spans: Counter = Counter()
    for make in CONFIGS.values():
        obs = run_experiment(make("full")).obs
        events.update(row.category for row in obs.trace.all())
        spans.update(span.name for span in obs.spans)
    for category in HOT_EVENTS:
        assert events[category] == calls["event", category] > 0, category
    for name in HOT_SPANS:
        assert spans[name] == calls["span", name] > 0, name
