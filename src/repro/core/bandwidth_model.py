"""The linear send-cost model (paper §3.2.2, "Bandwidth Constraints").

The proxy can push packets to the AP far faster than the AP can put
them on the air, so it must estimate how much data actually fits in a
client's reception window. The paper "executed a set of microbenchmarks
to create a model of send overhead and latency on our wireless network
[and] developed a linear cost function based on the message size".

:class:`LinearCostModel` is that function: ``cost(size) = a + b*size``
per packet. :func:`calibrate` reproduces the microbenchmark — it times
back-to-back sends of two packet sizes across a live medium and fits
the two coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.net.medium import MAX_BACKOFF_S, WirelessMedium
from repro.net.packet import IP_HEADER, LINK_HEADER, MSS, UDP_HEADER

#: The two UDP payload sizes the calibration times.
SMALL_PAYLOAD = 64
LARGE_PAYLOAD = 1400


@dataclass(frozen=True, slots=True)
class LinearCostModel:
    """Per-packet airtime estimate ``overhead_s + size_bytes * per_byte_s``.

    ``size_bytes`` is the application payload; header bytes are folded
    into ``overhead_s`` during calibration.
    """

    overhead_s: float
    per_byte_s: float

    def __post_init__(self) -> None:
        if self.overhead_s < 0 or self.per_byte_s <= 0:
            raise ConfigurationError(
                f"invalid cost model: a={self.overhead_s}, b={self.per_byte_s}"
            )

    def packet_cost(self, payload_bytes: int) -> float:
        """Estimated airtime of one packet with ``payload_bytes`` payload."""
        return self.overhead_s + payload_bytes * self.per_byte_s

    def burst_cost(self, payload_bytes: int) -> float:
        """Estimated airtime of ``payload_bytes`` sent as MSS-sized packets."""
        if payload_bytes <= 0:
            return 0.0
        full, rest = divmod(payload_bytes, MSS)
        cost = full * self.packet_cost(MSS)
        if rest:
            cost += self.packet_cost(rest)
        return cost

    def bytes_for(self, duration_s: float) -> int:
        """Largest payload byte count whose burst fits in ``duration_s``."""
        if duration_s <= 0:
            return 0
        per_full_packet = self.packet_cost(MSS)
        full = int(duration_s / per_full_packet)
        remaining = duration_s - full * per_full_packet
        partial = 0
        if remaining > self.overhead_s:
            partial = min(MSS, int((remaining - self.overhead_s) / self.per_byte_s))
        return full * MSS + partial

    def effective_rate_bps(self, mss: int = MSS) -> float:
        """Goodput implied by the model for MSS-sized packets."""
        return mss * 8.0 / self.packet_cost(mss)


def calibrate(medium: WirelessMedium) -> LinearCostModel:
    """Fit the linear model from the medium's airtime at two UDP sizes.

    This is the closed-form equivalent of the paper's microbenchmark:
    send trains of small and large packets, divide elapsed time by
    count, and solve the 2x2 system. We also fold in the mean
    contention backoff so the estimate errs conservative (the paper's
    concern was sending too *much*, which steals later clients' slots).
    """
    header = LINK_HEADER + IP_HEADER + UDP_HEADER
    mean_backoff = MAX_BACKOFF_S / 2.0
    cost_small = medium.airtime(header + SMALL_PAYLOAD) + mean_backoff
    cost_large = medium.airtime(header + LARGE_PAYLOAD) + mean_backoff
    per_byte = (cost_large - cost_small) / (LARGE_PAYLOAD - SMALL_PAYLOAD)
    overhead = cost_small - SMALL_PAYLOAD * per_byte
    return LinearCostModel(overhead_s=overhead, per_byte_s=per_byte)
