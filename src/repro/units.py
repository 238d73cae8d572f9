"""Unit helpers and physical constants used throughout the library.

The simulator's time unit is the **second** (a plain float). Data sizes
are **bytes** (ints), and rates are **bits per second** (floats). These
helpers keep literals in the code readable and make unit mistakes
grep-able: writing ``ms(100)`` is harder to get wrong than ``0.1``.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

# --------------------------------------------------------------------------
# Time
# --------------------------------------------------------------------------


def ms(value: float) -> float:
    """Milliseconds expressed in seconds."""
    return value * 1e-3


def us(value: float) -> float:
    """Microseconds expressed in seconds."""
    return value * 1e-6


# --------------------------------------------------------------------------
# Data sizes
# --------------------------------------------------------------------------

KB = 1024
MB = 1024 * 1024


def kib(value: float) -> int:
    """Kibibytes expressed in bytes (rounded)."""
    return int(value * KB)


def mib(value: float) -> int:
    """Mebibytes expressed in bytes (rounded)."""
    return int(value * MB)


# --------------------------------------------------------------------------
# Rates
# --------------------------------------------------------------------------


def kbps(value: float) -> float:
    """Kilobits per second expressed in bits per second.

    Network rates use decimal prefixes (1 kbps = 1000 bit/s), matching
    how the paper quotes stream bitrates (56 kbps, 512 kbps, ...).
    """
    return value * 1e3


def mbps(value: float) -> float:
    """Megabits per second expressed in bits per second."""
    return value * 1e6


def transmit_time(size_bytes: int, rate_bps: float) -> float:
    """Serialization delay of ``size_bytes`` at ``rate_bps``.

    Raises:
        ConfigurationError: if the rate is not positive.
    """
    if rate_bps <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate_bps!r}")
    return (size_bytes * 8.0) / rate_bps
