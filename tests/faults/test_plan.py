"""FaultPlan validation, dict round-trips and the CLI spec parsers."""

import pytest

from repro.cli import parse_churn, parse_gilbert_elliott, parse_window
from repro.errors import ConfigurationError
from repro.faults import (
    ChurnEvent,
    ClockFaultSpec,
    FaultPlan,
    GilbertElliottSpec,
    Window,
)


class TestWindow:
    def test_half_open(self):
        window = Window(1.0, 2.0)
        assert window.contains(1.0)
        assert window.contains(1.999)
        assert not window.contains(2.0)
        assert not window.contains(0.999)

    @pytest.mark.parametrize("start,end", [(-1.0, 1.0), (2.0, 2.0), (3.0, 1.0)])
    def test_rejects_degenerate(self, start, end):
        with pytest.raises(ConfigurationError):
            Window(start, end)


class TestChurnEvent:
    def test_gone_interval(self):
        event = ChurnEvent(0, leave_at=2.0, rejoin_at=4.0)
        assert not event.gone(1.9)
        assert event.gone(2.0)
        assert event.gone(3.9)
        assert not event.gone(4.0)

    def test_never_rejoins(self):
        assert ChurnEvent(0, leave_at=1.0).gone(1e9)

    @pytest.mark.parametrize("kwargs", [
        {"client_index": -1, "leave_at": 1.0},
        {"client_index": 0, "leave_at": -0.5},
        {"client_index": 0, "leave_at": 2.0, "rejoin_at": 2.0},
        {"client_index": 0, "leave_at": 2.0, "rejoin_at": 1.0},
    ])
    def test_rejects_bad_events(self, kwargs):
        with pytest.raises(ConfigurationError):
            ChurnEvent(**kwargs)


class TestGilbertElliott:
    @pytest.mark.parametrize("kwargs", [
        {"p_good_bad": 1.5, "p_bad_good": 0.5},
        {"p_good_bad": 0.5, "p_bad_good": -0.1},
        {"p_good_bad": 0.5, "p_bad_good": 0.5, "loss_bad": 2.0},
    ])
    def test_rejects_bad_probabilities(self, kwargs):
        with pytest.raises(ConfigurationError):
            GilbertElliottSpec(**kwargs)


class TestFaultPlan:
    @pytest.mark.parametrize("kwargs", [
        {"loss_rate": 1.0},
        {"loss_rate": -0.1},
        {"duplicate_rate": 1.0},
        {"reorder_rate": -0.5},
        {"corrupt_rate": 2.0},
        {"fallback_after_misses": 0},
        {"silence_timeout_s": 0.0},
        {"silence_timeout_s": -1.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultPlan(**kwargs)

    def test_lists_normalized_to_tuples(self):
        plan = FaultPlan(
            outages=[Window(1.0, 2.0)],
            churn=[ChurnEvent(0, 1.0)],
        )
        assert isinstance(plan.outages, tuple)
        assert isinstance(plan.churn, tuple)

    def test_touches_medium(self):
        assert not FaultPlan().touches_medium
        assert not FaultPlan(
            clock=ClockFaultSpec(skew_ppm=100.0), silence_timeout_s=1.0
        ).touches_medium
        assert FaultPlan(loss_rate=0.1).touches_medium
        assert FaultPlan(burst_loss=GilbertElliottSpec(0.1, 0.5)).touches_medium
        assert FaultPlan(schedule_blackouts=(Window(0.0, 1.0),)).touches_medium
        assert FaultPlan(churn=(ChurnEvent(0, 1.0),)).touches_medium


class TestCliParsers:
    def test_parse_window(self):
        assert parse_window("3.0:4.5") == Window(3.0, 4.5)

    @pytest.mark.parametrize("text", ["3.0", "a:b", "4:3", ""])
    def test_parse_window_rejects(self, text):
        with pytest.raises(ConfigurationError):
            parse_window(text)

    def test_parse_churn(self):
        assert parse_churn("2:10") == ChurnEvent(2, 10.0)
        assert parse_churn("2:10:25") == ChurnEvent(2, 10.0, 25.0)

    @pytest.mark.parametrize("text", ["2", "x:1", "1:2:3:4", "0:5:4"])
    def test_parse_churn_rejects(self, text):
        with pytest.raises(ConfigurationError):
            parse_churn(text)

    def test_parse_burst_loss(self):
        def parse_burst_loss(text):
            return parse_gilbert_elliott(text, "burst-loss")

        assert parse_burst_loss("0.05:0.4") == GilbertElliottSpec(0.05, 0.4)
        assert parse_burst_loss("0.05:0.4:0.9") == GilbertElliottSpec(
            0.05, 0.4, loss_bad=0.9
        )
        assert parse_burst_loss("0.05:0.4:0.9:0.01") == GilbertElliottSpec(
            0.05, 0.4, loss_good=0.01, loss_bad=0.9
        )

    @pytest.mark.parametrize("text", ["0.05", "a:b", "2.0:0.4", ""])
    def test_parse_burst_loss_rejects(self, text):
        with pytest.raises(ConfigurationError):
            parse_gilbert_elliott(text, "burst-loss")
