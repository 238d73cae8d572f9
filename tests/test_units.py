"""Unit-helper properties: round trips, identities, and error taxonomy."""

import pytest
from hypothesis import given, strategies as st

from repro import units
from repro.errors import ConfigurationError


class TestTime:
    def test_ms_us_scale(self):
        assert units.ms(1) == 1e-3
        assert units.us(1) == 1e-6
        assert units.ms(1000) == 1.0

    @given(st.integers(min_value=0, max_value=10**6))
    def test_ms_us_consistent_on_integers(self, n):
        assert units.ms(n) == pytest.approx(units.us(n * 1000))

    def test_common_constants_are_bit_exact(self):
        """The UNI001 sweep replaced literals; values must not drift."""
        assert units.ms(6) == 0.006
        assert units.ms(4) == 0.004
        assert units.ms(12) == 0.012
        assert units.ms(10) == 0.010
        assert units.ms(40) == 0.04
        assert units.ms(100) == 0.1
        assert units.ms(500) == 0.5
        assert units.ms(1.5) == 0.0015
        assert units.ms(0.8) == 0.0008
        assert units.ms(0.4) == 0.0004
        assert units.us(500) == 0.0005
        assert units.us(900) == 0.0009
        assert units.us(300) == 0.0003


class TestSizes:
    def test_kib_mib(self):
        assert units.kib(1) == 1024
        assert units.kib(64) == 65536
        assert units.mib(1) == 1024 * 1024
        assert units.mib(2) == 2 * units.MB

    @given(st.integers(min_value=0, max_value=4096))
    def test_mib_is_1024_kib(self, n):
        assert units.mib(n) == units.kib(n * 1024)


class TestRates:
    def test_prefixes_are_decimal(self):
        assert units.kbps(56) == 56_000.0
        assert units.mbps(11) == 11_000_000.0

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_mbps_is_1000_kbps(self, rate):
        assert units.mbps(rate) == pytest.approx(units.kbps(rate * 1000.0))

    @given(
        st.integers(min_value=0, max_value=10**9),
        st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
    )
    def test_transmit_time_round_trip(self, size, rate):
        t = units.transmit_time(size, rate)
        assert t >= 0.0
        assert t * rate == pytest.approx(size * 8.0)

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_transmit_time_rejects_bad_rate(self, rate):
        with pytest.raises(ConfigurationError):
            units.transmit_time(100, rate)
