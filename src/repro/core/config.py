"""Search configuration (paper §V-B).

Defaults are the paper's: learning rate 0.05, discount factor 0.9
("slightly more importance to short-term rewards"), replay buffer of 128
transitions ("following [29]"), reward shaping on, and the 50%-explore
epsilon schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.epsilon import EpsilonSchedule
from repro.errors import ConfigError


@dataclass
class ServiceConfig:
    """Configuration of the async campaign service (``repro serve``).

    The service accepts :class:`~repro.runtime.campaign.CampaignJob`
    submissions over HTTP, runs them on lease-pulling workers (its own
    local worker processes and any remote fleet hosts) and persists
    payloads in a :class:`~repro.runtime.store.ResultStore`;
    see :mod:`repro.runtime.service` and ``docs/service.md``.
    """

    #: Interface the HTTP server binds (loopback by default; bind
    #: 0.0.0.0 explicitly to serve a fleet).
    host: str = "127.0.0.1"
    #: TCP port; 0 lets the OS pick (the bound port is printed and
    #: exposed as ``CampaignService.port``).
    port: int = 8421
    #: Local worker processes the service forks at start; each runs
    #: the fleet worker loop against the bound port over loopback.
    #: 0 leaves the queue to remote fleet workers alone (or to nobody:
    #: useful for tests and manual queue control).
    workers: int = 2
    #: Maximum queued (not yet running) jobs before ``POST /jobs``
    #: answers 429 — the service's back-pressure valve.
    queue_limit: int = 64
    #: Result-store database path (None: in-memory, lives with the
    #: service process; see :class:`~repro.runtime.store.ResultStore`).
    store_path: str | None = None
    #: Local LUT cache tier shared by worker jobs — also the shard
    #: tree this instance serves over ``GET/PUT /luts`` (None: no
    #: local tier, and the LUT endpoints answer misses/503).
    cache_dir: str | None = None
    #: Remote shard server URL(s) chained behind the local tier —
    #: worker jobs fetch LUTs profiled elsewhere in the fleet before
    #: profiling themselves (see :mod:`repro.runtime.lutcache`).
    cache_remote: str | None = None
    #: Seconds between keep-alive events on an idle progress stream.
    heartbeat_s: float = 0.5
    #: Finished job records retained in memory for ``GET /jobs``.
    #: Oldest terminal records are evicted past this bound (payloads
    #: stay available through the result store); queued/running
    #: records are never evicted.
    keep_records: int = 1024
    #: Seconds a worker's lease stays valid without a heartbeat.  Each
    #: heartbeat extends the deadline by this much; a missed deadline
    #: expires the lease and requeues the job.  Workers beat every
    #: third of it, and each beat carries the jobs' latest anytime
    #: checkpoints (live progress and crash recovery run at that
    #: cadence).
    lease_ttl_s: float = 30.0
    #: Seconds between lease-reaper sweeps (expiry detection latency).
    lease_check_s: float = 1.0
    #: Times a job may be (re)leased before a further expiry marks it
    #: failed instead of requeueing it — bounds crash loops on a job
    #: that reliably kills its workers.
    max_lease_retries: int = 3
    #: Per-tenant cap on *active* (queued + running/leased) jobs; 0
    #: disables the quota.  Exceeding it answers 429 + Retry-After.
    quota_jobs: int = 0
    #: Per-tenant token-bucket rate limit on ``POST /jobs`` requests,
    #: in requests per second; 0 disables rate limiting.
    rate_limit_per_s: float = 0.0
    #: Token-bucket burst capacity (requests a quiet tenant may send
    #: back-to-back before the per-second rate applies).
    rate_burst: int = 10
    #: Seconds graceful shutdown waits for outstanding leases (local
    #: and remote workers alike) to complete before releasing them
    #: (their jobs are then cancelled like other queued jobs).
    drain_timeout_s: float = 30.0
    #: Maximum jobs one ``POST /leases`` may claim (``max_jobs`` is
    #: clamped to this) — bounds how much queued work a single slow or
    #: crash-prone worker can hold hostage under one lease.
    lease_batch_limit: int = 64
    #: Run the file-backed result store in WAL mode with
    #: ``synchronous=NORMAL`` (the throughput default); False keeps
    #: the rollback journal with per-write full fsync durability.
    store_wal: bool = True
    #: Checkpoint search/multi-seed jobs every N episodes (anytime
    #: search: live progress, ``DELETE`` preemption of running jobs,
    #: crash recovery, and ``submit --resume``).  0 disables — the
    #: default, since checkpointing adds per-boundary snapshot work
    #: and store writes.  See :mod:`repro.core.checkpoint`.
    checkpoint_every: int = 0
    #: Seconds a persisted checkpoint of a non-terminal job survives
    #: without being refreshed before the reaper garbage-collects it
    #: (checkpoints of completed jobs are deleted immediately).
    checkpoint_ttl_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.port < 0 or self.port > 65535:
            raise ConfigError(f"port must be in [0, 65535], got {self.port}")
        if self.workers < 0:
            raise ConfigError(f"workers must be >= 0, got {self.workers}")
        if self.queue_limit < 1:
            raise ConfigError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.heartbeat_s <= 0:
            raise ConfigError(
                f"heartbeat_s must be > 0, got {self.heartbeat_s}"
            )
        if self.keep_records < 1:
            raise ConfigError(
                f"keep_records must be >= 1, got {self.keep_records}"
            )
        if self.lease_ttl_s <= 0:
            raise ConfigError(
                f"lease_ttl_s must be > 0, got {self.lease_ttl_s}"
            )
        if self.lease_check_s <= 0:
            raise ConfigError(
                f"lease_check_s must be > 0, got {self.lease_check_s}"
            )
        if self.max_lease_retries < 1:
            raise ConfigError(
                f"max_lease_retries must be >= 1, got {self.max_lease_retries}"
            )
        if self.quota_jobs < 0:
            raise ConfigError(
                f"quota_jobs must be >= 0, got {self.quota_jobs}"
            )
        if self.rate_limit_per_s < 0:
            raise ConfigError(
                f"rate_limit_per_s must be >= 0, got {self.rate_limit_per_s}"
            )
        if self.rate_burst < 1:
            raise ConfigError(
                f"rate_burst must be >= 1, got {self.rate_burst}"
            )
        if self.drain_timeout_s < 0:
            raise ConfigError(
                f"drain_timeout_s must be >= 0, got {self.drain_timeout_s}"
            )
        if self.lease_batch_limit < 1:
            raise ConfigError(
                f"lease_batch_limit must be >= 1, got {self.lease_batch_limit}"
            )
        if self.checkpoint_every < 0:
            raise ConfigError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.checkpoint_ttl_s <= 0:
            raise ConfigError(
                f"checkpoint_ttl_s must be > 0, got {self.checkpoint_ttl_s}"
            )


@dataclass
class SearchConfig:
    """Hyper-parameters of one QS-DNN search."""

    episodes: int = 1000
    learning_rate: float = 0.05
    discount: float = 0.9
    replay_capacity: int = 128
    replay_enabled: bool = True
    #: Reward shaping (paper §IV-C): per-layer negative latency rewards.
    #: Off -> only the terminal transition carries the (total) reward.
    reward_shaping: bool = True
    #: First update of a Q entry writes its target directly (removes the
    #: optimistic zero-init bias; see QTable).  Off by default — the
    #: paper uses plain eq. (2) from zero; exposed for ablations.
    first_visit_bootstrap: bool = False
    #: Coordinate-descent sweeps applied to the best-found configuration
    #: before reporting (LUT-only, strictly improving; see
    #: :mod:`repro.core.polish`).  0 disables (raw RL output).
    polish_sweeps: int = 2
    #: Episode-kernel backend: ``"auto"`` picks numba when installed
    #: (honoring ``REPRO_KERNEL_BACKEND``), else the pure-Python
    #: reference backend; ``"mega"`` forces the structure-of-arrays
    #: multi-seed path (scalar searches degrade it to the per-seed
    #: backend).  All are bit-identical; see :mod:`repro.core.kernels`.
    kernel: str = "auto"
    seed: int = 0
    epsilon: EpsilonSchedule = field(default=None)  # type: ignore[assignment]
    #: Record the per-episode latency curve (Figs. 4/5).
    track_curve: bool = True
    #: Q-prior used to seed the table (``off``/``stored``/``surrogate``;
    #: see :mod:`repro.core.priors`).  ``off`` keeps the zero init and
    #: is bitwise-identical to builds without the prior layer
    #: (exactness contract 9).
    warm_start: str = "off"

    def __post_init__(self) -> None:
        if self.episodes < 1:
            raise ConfigError(f"episodes must be >= 1, got {self.episodes}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError(
                f"learning_rate must be in (0, 1], got {self.learning_rate}"
            )
        if not 0.0 <= self.discount <= 1.0:
            raise ConfigError(f"discount must be in [0, 1], got {self.discount}")
        if self.replay_capacity < 1:
            raise ConfigError(
                f"replay_capacity must be >= 1, got {self.replay_capacity}"
            )
        if self.polish_sweeps < 0:
            raise ConfigError(
                f"polish_sweeps must be >= 0, got {self.polish_sweeps}"
            )
        if self.kernel not in ("auto", "numba", "reference", "mega"):
            raise ConfigError(
                "kernel must be auto, numba, reference or mega, "
                f"got {self.kernel!r}"
            )
        from repro.core.priors import validate_warm_start

        validate_warm_start(self.warm_start)
        if self.epsilon is None:
            self.epsilon = (
                EpsilonSchedule.paper(self.episodes)
                if self.episodes >= 20
                else EpsilonSchedule.constant(1.0, self.episodes)
            )
        if self.epsilon.total_episodes != self.episodes:
            raise ConfigError(
                f"epsilon schedule covers {self.epsilon.total_episodes} episodes, "
                f"config says {self.episodes}"
            )
