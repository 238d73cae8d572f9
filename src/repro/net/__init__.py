"""Network substrate: packets, links, wireless medium, UDP/TCP, tooling.

This package models the paper's testbed network: wired Fast Ethernet
segments between servers, proxy and access point, and a shared 11 Mbps
802.11b wireless cell between the access point and the mobile clients.
It also provides the supporting machinery the paper relied on: a
spoofing/NAT table (the IPQ analog), a DummyNet-style traffic shaper,
and a promiscuous monitoring station (the tcpdump analog).

The names below resolve on first use, so importing one module (the
pure :mod:`~repro.net.packet`, say) does not load the simulator.
"""

from __future__ import annotations

import importlib
from typing import Any

_HOMES = {
    name: module
    for module, names in {
        "addr": ("BROADCAST_IP", "Endpoint", "FlowKey"),
        "link": ("Link",),
        "medium": ("WirelessMedium",),
        "node": ("Interface", "Node"),
        "packet": ("Packet", "TcpFlags"),
        "sniffer": ("FrameRecord", "MonitoringStation"),
        "udp": ("UdpSocket",),
    }.items()
    for name in names
}

__all__ = sorted(_HOMES)


def __getattr__(name: str) -> Any:
    if name not in _HOMES:
        raise AttributeError(f"module 'repro.net' has no attribute {name!r}")
    value = getattr(importlib.import_module(f"repro.net.{_HOMES[name]}"), name)
    globals()[name] = value
    return value
