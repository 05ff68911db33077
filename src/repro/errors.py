"""Exception hierarchy for the QS-DNN reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while
still being able to discriminate the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """A network graph is structurally invalid.

    Raised for cycles, dangling edges, duplicate layer names, or shape
    mismatches discovered during graph validation.
    """


class ShapeError(GraphError):
    """Tensor shapes are inconsistent with a layer's hyper-parameters."""


class UnknownLayerError(GraphError):
    """A layer name was looked up that does not exist in the graph."""


class BackendError(ReproError):
    """A primitive or library was used outside its declared coverage."""


class UnsupportedLayerError(BackendError):
    """A primitive was asked to execute a layer kind it does not support."""


class NoPrimitiveError(BackendError):
    """No primitive in the active design space can execute a layer.

    Every design space must provide at least one implementation per layer;
    the Vanilla library exists precisely to guarantee this.  Hitting this
    error means the registry was constructed without Vanilla coverage.
    """


class PlatformError(ReproError):
    """A hardware model was configured inconsistently."""


class ProfilingError(ReproError):
    """The inference phase failed to produce a complete look-up table."""


class LookupError_(ProfilingError):
    """A (layer, primitive) pair is missing from the latency table."""


class ScheduleError(ReproError):
    """A network schedule is incomplete or references unknown primitives."""


class SearchError(ReproError):
    """The RL search was configured inconsistently, or failed to run.

    Examples: an epsilon schedule whose episode counts do not add up, a
    non-positive learning rate, an empty action set for some layer, or
    a multi-seed sweep shard whose process failed or died.
    """


class ConfigError(ReproError):
    """A user-supplied configuration value is out of its legal range."""


class CheckpointError(ConfigError):
    """A search checkpoint is malformed or mismatches the run.

    Raised when a checkpoint's format version is unknown (loud
    rejection beats silently resuming under different semantics), or
    when its identity fields (kind/graph/episodes/seeds) disagree with
    the search it was handed to — resuming it would answer a different
    question.
    """


class PreemptedError(ReproError):
    """A search stopped at a checkpoint boundary on request.

    Carries the checkpoint captured at the boundary in
    :attr:`checkpoint` (the JSON-safe dict of
    :mod:`repro.core.checkpoint`); resuming from it finishes
    bitwise-identical to the uninterrupted run.  Raised when a
    checkpoint callback returns ``False`` — a cancel flag, a revoked
    lease — never spontaneously.
    """

    def __init__(self, checkpoint: dict) -> None:
        episode = checkpoint.get("episode", "?")
        super().__init__(f"search preempted at episode {episode}")
        self.checkpoint = checkpoint

    def __reduce__(self):
        # Keep the exception picklable with the checkpoint intact (the
        # default reduce replays ``args``, which holds the message, not
        # the checkpoint).
        return (type(self), (self.checkpoint,))


class LutCacheError(ReproError):
    """A tiered LUT-cache entry is corrupt or mismatches its key.

    Raised when a fetched shard entry does not parse as a LUT, or when
    its identity fields (network/platform/mode) disagree with the key
    it was resolved under — serving it would price a different
    scenario.  Missing entries are not errors (they fall through to the
    next tier, ultimately profiling on miss).
    """


class ServiceError(ReproError):
    """The campaign service rejected a request or is unavailable."""


class QueueFullError(ServiceError):
    """The service's job queue hit its depth limit (HTTP 429).

    Back-pressure, not failure: re-submit after running jobs drain, or
    run the service with a larger ``--queue-limit``.
    """


class QuotaExceededError(QueueFullError):
    """A tenant exceeded its admission quota or rate limit (HTTP 429).

    Carries ``retry_after_s`` — the earliest moment a retry can
    succeed (token-bucket refill time, or "when running jobs drain"
    for admission quotas).  Like its parent, this is back-pressure:
    the request was well-formed, the fleet is just protecting itself.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class LeaseError(ServiceError):
    """A worker-protocol request violated the lease state machine."""


class LeaseExpiredError(LeaseError):
    """The lease a worker acted on is no longer active (HTTP 409).

    Heartbeats and result submissions after expiry answer 409: the
    job has been requeued (or finished elsewhere), so the worker must
    discard its work and lease afresh.
    """
