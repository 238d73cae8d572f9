"""Unit tests for the linear send-cost model and its calibration."""

import pytest

from repro.core.bandwidth_model import LinearCostModel, calibrate
from repro.errors import ConfigurationError
from repro.net.medium import MAX_BACKOFF_S, WirelessMedium
from repro.sim import Simulator
from repro.units import mbps


@pytest.fixture
def medium():
    return WirelessMedium(Simulator())


class TestLinearCostModel:
    def test_packet_cost_is_affine(self):
        model = LinearCostModel(overhead_s=0.001, per_byte_s=1e-6)
        assert model.packet_cost(0) == pytest.approx(0.001)
        assert model.packet_cost(1000) == pytest.approx(0.002)

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(ConfigurationError):
            LinearCostModel(overhead_s=-0.1, per_byte_s=1e-6)
        with pytest.raises(ConfigurationError):
            LinearCostModel(overhead_s=0.0, per_byte_s=0.0)

    def test_burst_cost_segments_at_mss(self):
        model = LinearCostModel(overhead_s=0.001, per_byte_s=1e-6)
        one = model.packet_cost(1460)
        assert model.burst_cost(1460) == pytest.approx(one)
        assert model.burst_cost(2920) == pytest.approx(2 * one)
        assert model.burst_cost(1461) == pytest.approx(one + model.packet_cost(1))

    def test_burst_cost_zero(self):
        model = LinearCostModel(overhead_s=0.001, per_byte_s=1e-6)
        assert model.burst_cost(0) == 0.0

    def test_bytes_for_inverts_burst_cost(self):
        model = LinearCostModel(overhead_s=0.001, per_byte_s=1e-6)
        for duration in (0.01, 0.05, 0.123, 0.5):
            nbytes = model.bytes_for(duration)
            assert model.burst_cost(nbytes) <= duration + 1e-12
            # one more full packet would not fit
            assert model.burst_cost(nbytes + 1460) > duration

    def test_bytes_for_nonpositive_duration(self):
        model = LinearCostModel(overhead_s=0.001, per_byte_s=1e-6)
        assert model.bytes_for(0.0) == 0
        assert model.bytes_for(-1.0) == 0

    def test_effective_rate(self):
        model = LinearCostModel(overhead_s=0.001, per_byte_s=1e-6)
        rate = model.effective_rate_bps()
        assert rate == pytest.approx(1460 * 8 / model.packet_cost(1460))


class TestCalibration:
    def test_calibrated_model_matches_medium_airtime(self, medium):
        model = calibrate(medium)
        # The model should estimate a 1400B UDP packet's airtime within
        # the backoff margin it deliberately adds.
        actual = medium.airtime(1400 + 62)
        estimated = model.packet_cost(1400)
        assert actual <= estimated <= actual + MAX_BACKOFF_S

    def test_calibration_is_conservative(self, medium):
        """Never underestimates airtime (the paper's overrun concern)."""
        model = calibrate(medium)
        for payload in (64, 200, 700, 1000, 1400):
            assert model.packet_cost(payload) >= medium.airtime(payload + 62)

    def test_effective_rate_plausible_for_11mbps(self, medium):
        model = calibrate(medium)
        assert mbps(3) < model.effective_rate_bps(mss=1400) < mbps(8)
