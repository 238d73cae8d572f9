"""Network substrate: packets, links, wireless medium, UDP/TCP, tooling.

This package models the paper's testbed network: wired Fast Ethernet
segments between servers, proxy and access point, and a shared 11 Mbps
802.11b wireless cell between the access point and the mobile clients.
It also provides the supporting machinery the paper relied on: TCP
connections bound to spoofed endpoints (what the IPQ rewrite achieved),
a DummyNet-style traffic shaper, and a promiscuous monitoring station
(the tcpdump analog).

The package imports none of its modules, so importing one (the pure
:mod:`~repro.net.packet`, say) does not load the simulator.
"""
