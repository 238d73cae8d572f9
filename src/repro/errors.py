"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation kernel."""


class ProcessError(SimulationError):
    """A simulation process misbehaved (e.g. yielded a non-event)."""


class NetworkError(ReproError):
    """Errors raised by the network substrate."""


class AddressError(NetworkError):
    """Invalid address, port, or flow specification."""


class ConnectionError_(NetworkError):
    """TCP connection lifecycle violation (named to avoid shadowing builtins)."""


class SocketError(NetworkError):
    """Socket misuse (double bind, send on closed socket, ...)."""


class OverloadError(NetworkError):
    """The live proxy refused admission (connection/byte limits hit)."""


class ProxyProtocolError(NetworkError):
    """The live proxy rejected a CONNECT handshake or status line."""


class SchedulingError(ReproError):
    """Errors raised by the proxy scheduling policies."""


class ConfigurationError(ReproError):
    """An experiment or component was configured inconsistently."""


class TraceError(ReproError):
    """Errors raised while capturing or analyzing packet traces."""


class AnalysisError(ReproError):
    """The static-analysis engine hit an internal inconsistency
    (e.g. a non-converging dataflow client)."""


class SweepError(ReproError):
    """Errors raised by the sweep orchestration subsystem."""


class SweepExecutionError(SweepError):
    """One or more sweep runs failed (raised, or lost their worker)."""
