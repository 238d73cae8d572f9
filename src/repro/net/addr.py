"""Addresses and endpoints.

Addresses are plain strings ("10.0.0.3") — the library never parses
octets, it only compares addresses for equality, so any hashable string
works. An :class:`Endpoint` pairs an address with a port.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AddressError

#: Destination address of link-local broadcasts (the schedule packets).
BROADCAST_IP = "255.255.255.255"


@dataclass(frozen=True, slots=True)
class Endpoint:
    """An (address, port) pair."""

    ip: str
    port: int

    def __post_init__(self) -> None:
        if not self.ip:
            raise AddressError("endpoint needs a non-empty ip")
        if not 0 < self.port < 65536:
            raise AddressError(f"port out of range: {self.port!r}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.ip}:{self.port}"
