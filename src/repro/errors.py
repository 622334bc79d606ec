"""Exception hierarchy for :mod:`repro`.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause while still being able to discriminate the finer-grained
subclasses when it matters (e.g. treating a bad environment-variable value
differently from a malformed dataset).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "InvalidEnvValue",
    "UnknownVariable",
    "TopologyError",
    "UnknownMachine",
    "WorkloadError",
    "UnknownWorkload",
    "UnknownInput",
    "SimulationError",
    "CheckFailure",
    "ResilienceError",
    "PoisonBatchError",
    "SweepCancelledError",
    "ServeError",
    "TransportError",
    "MalformedFrameError",
    "TruncatedFrameError",
    "NodeLostError",
    "DatasetError",
    "SchemaError",
    "FrameError",
    "ColumnError",
    "LengthMismatch",
    "FitError",
    "NotFittedError",
    "ConvergenceError",
    "StatsError",
    "VizError",
]


class ReproError(Exception):
    """Base class for all library errors."""


# --------------------------------------------------------------------------
# Configuration / environment-variable space
# --------------------------------------------------------------------------
class ConfigError(ReproError):
    """A runtime configuration is malformed or inconsistent."""


class InvalidEnvValue(ConfigError):
    """An environment variable was given a value outside its legal domain."""

    def __init__(self, variable: str, value: object, allowed: object = None):
        self.variable = variable
        self.value = value
        self.allowed = allowed
        msg = f"invalid value {value!r} for {variable}"
        if allowed is not None:
            msg += f" (allowed: {allowed})"
        super().__init__(msg)


class UnknownVariable(ConfigError):
    """Reference to an environment variable the space does not define."""


# --------------------------------------------------------------------------
# Architecture / topology
# --------------------------------------------------------------------------
class TopologyError(ReproError):
    """A machine topology is internally inconsistent."""


class UnknownMachine(TopologyError):
    """Lookup of a machine name that is not registered."""


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------
class WorkloadError(ReproError):
    """A workload model is malformed."""


class UnknownWorkload(WorkloadError):
    """Lookup of a workload name that is not registered."""


class UnknownInput(WorkloadError):
    """A workload was asked for an input size it does not define."""


# --------------------------------------------------------------------------
# Simulation
# --------------------------------------------------------------------------
class SimulationError(ReproError):
    """The discrete-event or analytic simulation reached an invalid state."""


class CheckFailure(ReproError):
    """A verification check (invariant, metamorphic relation, differential
    comparison, or golden-trace match) found a violation."""


# --------------------------------------------------------------------------
# Resilience (supervised sweep execution)
# --------------------------------------------------------------------------
class ResilienceError(ReproError):
    """The supervised execution layer failed unrecoverably (respawn
    budget exhausted, every node lost)."""


class PoisonBatchError(ResilienceError):
    """A batch kept failing past its retry budget under
    ``fail_policy="raise"``.  Carries the sweep's
    :class:`~repro.resilience.report.FailureReport` (when available) as
    ``report`` so callers can see every attempt and cause."""

    def __init__(self, message: str, report: object = None):
        super().__init__(message)
        self.report = report


class SweepCancelledError(ResilienceError):
    """The sweep was cancelled cooperatively (a served request's deadline
    expired, the client went away, or the daemon began draining).  Raised
    between batches — never mid-batch — after landed batches have been
    flushed to the cache, so a cancelled sweep is always resumable."""


class TransportError(ResilienceError):
    """The node socket transport failed.  Every failure mode is typed
    (see subclasses) so the nodes backend can map it to the right
    recovery path — retry, respawn, or shard reassignment — instead of
    hanging on a half-read frame."""


class MalformedFrameError(TransportError):
    """A frame arrived with a bad magic, an implausible length, a failed
    checksum, or an undecodable payload — the peer is not speaking the
    protocol (or the bytes rotted in flight)."""


class TruncatedFrameError(TransportError):
    """The connection ended (or stalled past its deadline) in the middle
    of a frame — the classic mid-message node death."""


class NodeLostError(TransportError):
    """The connection dropped at a frame boundary: the node process died
    or the link was severed between messages."""


# --------------------------------------------------------------------------
# Serving (tuning-as-a-service daemon)
# --------------------------------------------------------------------------
class ServeError(ReproError):
    """The serving layer is misconfigured or an endpoint request is
    malformed (unknown job, bad parameter, oversized body).  Transport-
    level failures map to HTTP status codes in :mod:`repro.serve.app`;
    this class covers errors raised through the Python API."""


# --------------------------------------------------------------------------
# Datasets
# --------------------------------------------------------------------------
class DatasetError(ReproError):
    """Raw records could not be turned into a tabular dataset."""


class SchemaError(DatasetError):
    """A table does not contain the columns an operation requires."""


# --------------------------------------------------------------------------
# Frame (tabular substrate)
# --------------------------------------------------------------------------
class FrameError(ReproError):
    """Base class for errors in :mod:`repro.frame`."""


class ColumnError(FrameError):
    """Reference to a column that does not exist (or already exists)."""


class LengthMismatch(FrameError):
    """Columns of differing lengths were combined into one table."""


# --------------------------------------------------------------------------
# ML kit
# --------------------------------------------------------------------------
class FitError(ReproError):
    """Model fitting failed."""


class NotFittedError(FitError):
    """A model was used before :meth:`fit` was called."""


class ConvergenceError(FitError):
    """An iterative solver failed to converge within its iteration budget."""


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------
class StatsError(ReproError):
    """A statistical routine received data it cannot operate on."""


# --------------------------------------------------------------------------
# Visualization
# --------------------------------------------------------------------------
class VizError(ReproError):
    """A plot was requested with inconsistent data."""
