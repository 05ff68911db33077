"""Async campaign service: a job queue + result store behind HTTP.

The paper's workflow is one offline search per run; the ROADMAP's north
star is a long-running service that many clients throw scenarios at.
This module is that service layer:

* **Priority job queue** — ``POST /jobs`` enqueues
  :class:`~repro.runtime.campaign.CampaignJob` submissions (single
  scenarios or whole grids) with an integer priority (lower runs
  first).  The queue is depth-bounded: past ``queue_limit`` the service
  answers **429** instead of buffering unboundedly (back-pressure).
* **Local workers** — ``workers=N`` forks N worker processes once the
  listener binds.  Each runs the fleet worker loop
  (:class:`~repro.runtime.worker.FleetWorker`) against the bound port
  over loopback, one job per lease, so searches run off the event loop
  with the kernel backend each job requested and the shared on-disk
  LUT cache.  They are fleet workers the service owns: the reaper
  expires the leases of one that exits and forks its replacement.
* **Persistent result store** — every payload lands in a
  :class:`~repro.runtime.store.ResultStore` keyed by the full job
  identity; re-submitting a solved scenario is an instant cache hit
  (state ``done``, ``from_store: true``) and identical submissions
  in flight are coalesced onto one record.
* **Progress streaming** — ``GET /jobs/{id}/progress`` is a
  Server-Sent-Events stream: heartbeats while the job is queued or
  running — interleaved with live ``progress`` events from the
  anytime checkpoints when ``checkpoint_every`` is on — then the
  search's best-so-far checkpoints (derived from
  ``SearchResult.curve_ms``, monotone non-increasing, in episode
  order), then a terminal ``done``/``failed``/``cancelled`` event.
* **Anytime search** — with ``checkpoint_every=N`` every search /
  multi-seed job captures a :mod:`repro.core.checkpoint` snapshot
  each N episodes, and the worker's lease heartbeats (one per
  ``lease_ttl_s / 3``) carry the newest one.  The latest snapshot per
  job key is persisted in the result store's checkpoint table, which
  feeds live ``progress`` events and buys two more things: a
  SIGKILLed worker's job is requeued with its checkpoint attached
  (crash recovery); and re-submitting with ``"resume": true``
  continues from the stored snapshot — finishing bitwise-identical to
  a run that was never interrupted (exactness contract 8,
  ``docs/architecture.md``).
* **Preemption** — ``DELETE /jobs/{id}`` on a running job revokes its
  lease (202): the job is cancelled at once, its latest carried
  checkpoint stays in the store for a resume, batch siblings are
  requeued, and the worker's next heartbeat answers 409 so it stops.
* **LUT shard serving** — ``GET/PUT /luts/{platform}/{network}``
  expose the instance's local LUT cache tier to the fleet: any other
  machine's campaign (``--cache-remote URL``) fetches LUTs profiled
  here instead of re-profiling, and pushes fresh profiles back
  (:mod:`repro.runtime.lutcache`; every entry is validated against
  its key before it is stored).
* **Worker fleet (pull protocol)** — remote hosts run ``repro work
  --server URL`` (:mod:`repro.runtime.worker`): they register over
  ``POST /workers``, lease a batch of up to ``max_jobs`` queued jobs
  under one lease over ``POST /leases``, extend their claim with
  ``POST /leases/{id}/heartbeat`` and deliver every result of the
  lease in one ``POST /leases/{id}/results`` (a one-job lease is a
  batch of one) — landing in the same :class:`ResultStore`,
  bitwise-identical whichever worker ran them.  An empty ``POST
  /leases`` carrying ``wait_s`` is a long-poll, held until a job is
  queued or the wait runs out.  A missed heartbeat (worker crash,
  network partition) expires the lease and requeues its jobs with a
  bounded retry budget.
* **Tenancy guards** — per-tenant (``X-Tenant`` header) token-bucket
  rate limits and active-job admission quotas on ``POST /jobs``, both
  answering 429 + ``Retry-After`` so one tenant cannot starve the
  fleet.
* **Metrics** — ``GET /metrics`` renders a Prometheus text exposition
  (:mod:`repro.runtime.metrics`): queue depth, running/leased counts,
  lease ages, per-worker throughput, LUT-cache and result-store hit
  rates.  ``/metrics`` and ``/healthz`` bypass every admission guard —
  a saturated service must stay observable.
* **Graceful shutdown** — ``POST /shutdown`` (or SIGINT/SIGTERM under
  ``repro serve``) stops intake, cancels queued jobs, answers parked
  lease polls, waits for outstanding leases of local and remote
  workers alike (bounded by ``drain_timeout_s``; cancel past it),
  stops the local worker processes, then exits.

The HTTP layer is stdlib-only: a minimal HTTP/1.1 server written
directly on :func:`asyncio.start_server`, so the service runs anywhere
the repo does — no aiohttp, no frameworks.  Connections are
**keep-alive** by default (bounded per connection by
``MAX_REQUESTS_PER_CONNECTION`` and the request read timeout), so a
worker's whole lease/heartbeat/result dialogue rides one TCP stream.
Every endpoint is documented with examples in ``docs/service.md``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from urllib.parse import parse_qs, urlsplit

from repro import __version__
from repro.core.config import ServiceConfig
from repro.core.multi_seed import MultiSeedResult
from repro.errors import (
    ConfigError,
    LeaseError,
    LeaseExpiredError,
    LutCacheError,
    QueueFullError,
    QuotaExceededError,
    ServiceError,
)
from repro.runtime.campaign import CampaignJob, CampaignResult, grid
from repro.runtime.lutcache import LocalTier, LutKey, validate_entry
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.store import (
    LEASE_COMPLETED,
    LEASE_EXPIRED,
    LEASE_FAILED,
    LEASE_RELEASED,
    ResultStore,
    StoredResult,
    best_ms_of,
    job_key,
    payload_from_dict,
)
from repro.runtime.worker import FleetWorker, WorkerConfig

#: Sentinel: "submit() should consult the store itself" (distinct from
#: an explicit ``stored=None``, which asserts a known store miss).
_UNRESOLVED = object()

#: Job lifecycle states (terminal: done, failed, cancelled).
QUEUED, RUNNING, DONE, FAILED, CANCELLED = (
    "queued",
    "running",
    "done",
    "failed",
    "cancelled",
)

#: Default submission priority (lower runs first).
DEFAULT_PRIORITY = 10

#: Seconds a connection may take to deliver its request before being
#: dropped (bounds slow/idle clients; SSE *responses* are unbounded).
#: Also the idle timeout of a kept-alive connection between requests.
REQUEST_READ_TIMEOUT_S = 30.0

#: Seconds shutdown waits for the handlers of severed connections to
#: return.
HANDLER_EXIT_TIMEOUT_S = 5.0

#: Requests served on one keep-alive connection before the server
#: answers ``Connection: close`` — bounds per-connection state and
#: gives load balancers a natural rebalancing point.
MAX_REQUESTS_PER_CONNECTION = 1000

#: Maximum accepted request body (JSON job submissions are tiny; an
#: unbounded Content-Length would let any client allocate server
#: memory at will).  Result delivery gets a bigger allowance —
#: see :meth:`CampaignService._body_limit`.
MAX_BODY_BYTES = 1 << 20

#: Tenant assumed when ``POST /jobs`` carries no ``X-Tenant`` header.
DEFAULT_TENANT = "default"


def _valid_name(name: str) -> bool:
    """Worker/tenant names: short, metric-label and log safe."""
    return 0 < len(name) <= 64 and all(c.isalnum() or c in "._-" for c in name)


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, capacity ``burst``.

    :meth:`take` consumes one token and returns 0.0, or — when the
    bucket is empty — leaves it untouched and returns the seconds
    until a token becomes available (the ``Retry-After`` hint).
    """

    def __init__(self, rate: float, burst: int) -> None:
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = time.monotonic()

    def take(self, now: float | None = None) -> float:
        now = time.monotonic() if now is None else now
        self.tokens = min(self.burst, self.tokens + (now - self.updated) * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


@dataclass
class WorkerInfo:
    """One registered worker (a service-owned local worker process or a
    remote fleet host)."""

    id: str
    name: str
    local: bool = False
    registered_s: float = field(default_factory=time.time)
    last_seen_s: float = field(default_factory=time.time)
    leases: int = 0
    completed: int = 0
    failed: int = 0
    expired: int = 0
    busy_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "local": self.local,
            "registered_s": self.registered_s,
            "last_seen_s": self.last_seen_s,
            "leases": self.leases,
            "completed": self.completed,
            "failed": self.failed,
            "expired": self.expired,
            "busy_s": self.busy_s,
        }


def checkpoints_of(payload) -> list[dict]:
    """Best-so-far progress checkpoints of a finished payload.

    For payloads carrying an episode curve (``SearchResult``; the best
    member of a ``MultiSeedResult``) this is the sequence of strict
    improvements of ``running_min(curve_ms)`` — episode indices are
    strictly increasing, ``best_ms`` values monotone non-increasing,
    and every value satisfies ``best_ms == min(curve_ms[: episode+1])``
    bitwise.  The final episode is always included.  Payloads without a
    curve (Table II rows, method comparisons) yield a single terminal
    checkpoint when they expose a headline latency.
    """
    if isinstance(payload, MultiSeedResult):
        payload = payload.best
    curve = getattr(payload, "curve_ms", None)
    if not curve:
        best = best_ms_of(payload)
        if best is None:
            return []
        return [{"episode": 0, "best_ms": best}]
    points = []
    best = float("inf")
    for episode, total in enumerate(curve):
        if total < best:
            best = total
            points.append({"episode": episode, "best_ms": best})
    last = len(curve) - 1
    if points[-1]["episode"] != last:
        points.append({"episode": last, "best_ms": best})
    return points


@dataclass
class JobRecord:
    """One submitted job as the service tracks (and serves) it."""

    id: str
    job: CampaignJob
    priority: int = DEFAULT_PRIORITY
    state: str = QUEUED
    from_store: bool = False
    error: str | None = None
    result: CampaignResult | None = None
    submitted_s: float = field(default_factory=time.time)
    started_s: float | None = None
    finished_s: float | None = None
    tenant: str = DEFAULT_TENANT
    #: Leases granted so far (1 on first grant; requeues increment).
    attempts: int = 0
    #: Worker id / lease id of the *current* grant (None while queued).
    worker: str | None = None
    lease_id: str | None = None
    #: Encoded checkpoint the next grant should resume from (attached
    #: on ``"resume": true`` submissions and crash-recovery requeues).
    resume_text: str | None = field(default=None, repr=False)
    #: Encoded Q-prior spec for warm-started jobs — resolved from the
    #: result corpus at submission, shipped to whichever worker runs
    #: the job.  None means the job runs cold even if it asked for a
    #: warm start (the corpus had nothing to offer).
    warm_text: str | None = field(default=None, repr=False)
    #: Latest in-flight progress (``{"episode", "best_ms"}``) reported
    #: through a lease heartbeat's checkpoint carriage.
    progress: dict | None = None
    #: The result's ``(payload_kind, json)`` as :func:`encode_payload`
    #: writes it — set when the result is delivered (the text the store
    #: row holds) or on the first ``GET /jobs/{id}``, and spliced as is
    #: into every such body.
    encoded: tuple[str, str] | None = field(default=None, repr=False)
    done_event: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in (DONE, FAILED, CANCELLED)

    def to_dict(self) -> dict:
        """JSON-ready view of the record (the wire format of ``/jobs``),
        without the result payload (see :meth:`to_json`)."""
        body = {
            "id": self.id,
            "state": self.state,
            "job": self.job.to_dict(),
            "key": job_key(self.job),
            "priority": self.priority,
            "from_store": self.from_store,
            "error": self.error,
            "submitted_s": self.submitted_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "tenant": self.tenant,
            "attempts": self.attempts,
            "worker": self.worker,
            "lease_id": self.lease_id,
            "links": {
                "self": f"/jobs/{self.id}",
                "progress": f"/jobs/{self.id}/progress",
            },
        }
        if self.result is not None:
            body["best_ms"] = best_ms_of(self.result.payload)
            body["wall_clock_s"] = self.result.wall_clock_s
            body["lut_from_cache"] = self.result.lut_from_cache
        return body

    def to_json(self) -> str:
        """The ``GET /jobs/{id}`` body: :meth:`to_dict` plus, once the
        job is done, ``payload_kind`` and the full ``payload``.

        The payload is :attr:`encoded` spliced in verbatim: a delivered
        result's stored text, else the decoded payload encoded once, on
        the first call.  A store hit takes the second path, so a row
        written before a field existed is served with the field's
        decoded default, as ``json.dumps`` of the payload would be.
        """
        body = self.to_dict()
        if self.result is None:
            return json.dumps(body)
        if self.encoded is None:
            self.encoded = _encode_payload(self.result.payload)
        kind, text = self.encoded
        body["payload_kind"] = kind
        return f'{json.dumps(body)[:-1]}, "payload": {text}}}'


def _encode_payload(payload) -> tuple[str, str]:
    """:func:`repro.runtime.store.encode_payload`, looked up at call time
    like the store's own calls, so a replaced encoder is honoured."""
    from repro.runtime.store import encode_payload

    return encode_payload(payload)


def jobs_from_body(body: dict) -> tuple[list[CampaignJob], int]:
    """Parse a ``POST /jobs`` body into jobs plus a priority.

    Two forms are accepted: a single scenario (``network`` plus
    optional job fields) and a grid (``networks`` with optional
    ``platforms``/``modes``/``seeds`` lists, expanded via
    :func:`~repro.runtime.campaign.grid`).  The presence of
    ``networks`` selects the grid form — ``seeds`` alone does not,
    since a single multi-seed job carries a scalar ``seeds`` field.
    Unknown keys are rejected so typos fail loudly instead of
    silently running defaults.
    """
    if not isinstance(body, dict):
        raise ConfigError("request body must be a JSON object")
    body = dict(body)
    priority = body.pop("priority", DEFAULT_PRIORITY)
    if not isinstance(priority, int):
        raise ConfigError(f"priority must be an integer, got {priority!r}")
    if "networks" in body:
        allowed = {
            "networks",
            "platforms",
            "modes",
            "seeds",
            "episodes",
            "kind",
            "seeds_per_job",
            "kernel",
            "warm_start",
        }
        unknown = set(body) - allowed
        if unknown:
            raise ConfigError(f"unknown grid field(s): {sorted(unknown)}")
        networks = body.get("networks")
        if not networks or not isinstance(networks, list):
            raise ConfigError("grid submissions need a non-empty 'networks' list")
        jobs = grid(
            networks,
            platforms=body.get("platforms"),
            modes=body.get("modes"),
            seeds=body.get("seeds"),
            episodes=body.get("episodes"),
            kind=body.get("kind", "search"),
            seeds_per_job=body.get("seeds_per_job", 8),
            kernel=body.get("kernel", "auto"),
            warm_start=body.get("warm_start", "off"),
        )
        return jobs, priority
    allowed = {
        "network",
        "platform",
        "mode",
        "seed",
        "episodes",
        "kind",
        "repeats",
        "seeds",
        "kernel",
        "warm_start",
    }
    unknown = set(body) - allowed
    if unknown:
        raise ConfigError(f"unknown job field(s): {sorted(unknown)}")
    if "network" not in body:
        raise ConfigError("job submissions need a 'network'")
    body.setdefault("kind", "search")
    return [CampaignJob(**body)], priority


class CampaignService:
    """The long-running campaign service (queue + workers + store + HTTP).

    Lifecycle::

        service = CampaignService(ServiceConfig(port=0, workers=2))
        await service.start()        # binds HTTP, forks local workers
        ...                          # service.port is the bound port
        await service.shutdown()     # graceful: drains every lease

    or, from the CLI, ``repro serve`` which runs
    :meth:`serve_forever` with signal handlers installed.  All state
    lives on one event loop; jobs execute in worker *processes* —
    forked local workers and remote fleet hosts, all leasing over
    HTTP — so the loop stays responsive while searches run.
    """

    def __init__(
        self, config: ServiceConfig | None = None, store: ResultStore | None = None
    ) -> None:
        self.config = config or ServiceConfig()
        # `store or ...` would discard an *empty* injected store
        # (ResultStore defines __len__, so empty is falsy).
        self.store = (
            store
            if store is not None
            else ResultStore(
                self.config.store_path or ":memory:", wal=self.config.store_wal
            )
        )
        self.records: dict[str, JobRecord] = {}
        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self._seq = itertools.count(1)
        self._order = itertools.count()  # FIFO tie-break within a priority
        self._active: dict[str, JobRecord] = {}  # job key -> queued/running
        self._pending = 0  # queued (not yet running) job count
        #: Local worker processes by worker id, with the slot index a
        #: replacement inherits.
        self._local: dict[str, tuple[int, multiprocessing.Process]] = {}
        #: Parked long-poll lease requests, woken when a job is queued.
        self._lease_waiters: set[asyncio.Future] = set()
        self._lut_tier: LocalTier | None = (
            LocalTier(self.config.cache_dir)
            if self.config.cache_dir is not None
            else None
        )
        self._server: asyncio.base_events.Server | None = None
        #: Open client connections and the handler task serving each.
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._closing = False
        self._closed = asyncio.Event()
        self.port: int | None = None
        #: Registered workers (local worker processes and fleet hosts).
        self.workers_info: dict[str, WorkerInfo] = {}
        self._worker_seq = itertools.count(1)
        self._lease_seq = itertools.count(1)
        self._reaper: asyncio.Task | None = None
        #: Strong reference to an in-flight graceful-shutdown task —
        #: the loop only holds tasks weakly (see :meth:`_spawn_shutdown`).
        self._shutdown_task: asyncio.Task | None = None
        #: Per-tenant token buckets (created lazily on first POST).
        self._buckets: dict[str, TokenBucket] = {}
        self.metrics = MetricsRegistry()
        self._init_metrics()

    def _init_metrics(self) -> None:
        m = self.metrics
        self._m_submitted = m.counter(
            "repro_jobs_submitted_total", "Jobs admitted, by tenant."
        )
        self._m_completed = m.counter(
            "repro_jobs_completed_total", "Jobs finished done, by worker."
        )
        self._m_failed = m.counter(
            "repro_jobs_failed_total", "Jobs finished failed, by worker."
        )
        self._m_requeued = m.counter(
            "repro_jobs_requeued_total",
            "Jobs requeued after their lease expired.",
        )
        self._m_rejected = m.counter(
            "repro_jobs_rejected_total",
            "POST /jobs rejections, by reason "
            "(queue_full, quota, rate_limit).",
        )
        self._m_leases_granted = m.counter(
            "repro_leases_granted_total", "Leases granted, by worker."
        )
        self._m_leases_expired = m.counter(
            "repro_leases_expired_total",
            "Leases expired (deadline missed or worker exited), by worker.",
        )
        self._m_store_hits = m.counter(
            "repro_store_hits_total",
            "Submissions answered straight from the result store.",
        )
        self._m_store_misses = m.counter(
            "repro_store_misses_total",
            "Submissions that had to be computed.",
        )
        self._m_lut_hits = m.counter(
            "repro_lut_cache_hits_total",
            "Completed jobs whose LUT came from the tiered cache.",
        )
        self._m_lut_misses = m.counter(
            "repro_lut_cache_misses_total",
            "Completed jobs that profiled their LUT from scratch.",
        )
        self._m_busy = m.counter(
            "repro_worker_busy_seconds_total",
            "Wall-clock seconds spent executing jobs, by worker.",
        )
        self._m_checkpoints = m.counter(
            "repro_checkpoints_written_total",
            "Anytime job checkpoints persisted into the store.",
        )
        self._m_preempted = m.counter(
            "repro_jobs_preempted_total",
            "Running jobs preempted by DELETE /jobs/{id} "
            "(latest checkpoint persisted for resumption).",
        )
        self._m_resumed = m.counter(
            "repro_jobs_resumed_total",
            "Jobs granted with a resume checkpoint attached.",
        )
        self._m_warm = m.counter(
            "repro_warm_starts_total",
            "Jobs admitted with a warm-start Q-prior spec resolved "
            "from the result corpus, by prior kind.",
        )
        self._h_lease_batch = m.histogram(
            "repro_lease_batch_jobs",
            "Jobs granted per lease (the fleet's batch size).",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        self._h_result_bytes = m.histogram(
            "repro_result_payload_bytes",
            "Request body bytes of result deliveries "
            "(POST /leases/{id}/results).",
            buckets=(1024, 8192, 65536, 262144, 1048576),
        )
        self._h_flush = m.histogram(
            "repro_store_flush_seconds",
            "Latency of result-store flush/commit transactions.",
            buckets=(0.0005, 0.001, 0.005, 0.01, 0.05, 0.25, 1.0),
        )
        m.gauge(
            "repro_service_info",
            "Constant 1, labelled with the service version.",
            callback=lambda: {(("version", __version__),): 1.0},
        )
        m.gauge(
            "repro_queue_depth",
            "Jobs queued and not yet running.",
            callback=lambda: float(self._pending),
        )
        m.gauge(
            "repro_queue_limit",
            "Queue depth at which POST /jobs answers 429.",
            callback=lambda: float(self.config.queue_limit),
        )
        m.gauge(
            "repro_jobs_running",
            "Jobs currently leased and executing.",
            callback=lambda: float(len(self._active) - self._pending),
        )
        m.gauge(
            "repro_workers_registered",
            "Workers registered with this service.",
            callback=lambda: float(len(self.workers_info)),
        )
        m.gauge(
            "repro_leases_active",
            "Leases currently active in the lease table.",
            callback=lambda: float(len(self.store.active_leases())),
        )
        m.gauge(
            "repro_lease_age_seconds",
            "Age of each active lease, by lease id and worker.",
            callback=self._lease_ages,
        )
        m.gauge(
            "repro_stored_results",
            "Rows in the persistent result store.",
            callback=lambda: float(len(self.store)),
        )

    def _lease_ages(self) -> dict:
        now = time.time()
        return {
            (("lease", lease.lease_id), ("worker", lease.worker)): lease.age_s(now)
            for lease in self.store.active_leases()
        }

    # -- submission and queue state -----------------------------------------

    def submit(
        self,
        job: CampaignJob,
        priority: int = DEFAULT_PRIORITY,
        stored: StoredResult | None | object = _UNRESOLVED,
        tenant: str = DEFAULT_TENANT,
        resume: bool = False,
    ) -> JobRecord:
        """Accept one job: store hit, coalesced duplicate, or enqueue.

        Returns the job's :class:`JobRecord` — immediately ``done``
        (``from_store=True``) when the result store already has this
        exact scenario, the *existing* record when an identical job is
        already queued or running, and a fresh ``queued`` record
        otherwise.  ``stored`` lets a caller that already looked the
        job up in the store pass the answer in (``None`` for a known
        miss) so admission does not query twice.  ``resume=True``
        attaches the job key's stored checkpoint (if any) so the grant
        continues the interrupted search instead of restarting; with
        no stored checkpoint the job simply runs from scratch.  Raises
        :class:`QueueFullError` past the queue depth limit and
        :class:`ServiceError` once shutdown has begun.
        """
        if self._closing:
            raise ServiceError("service is shutting down; not accepting jobs")
        key = job_key(job)
        active = self._active.get(key)
        if active is not None:
            self._m_submitted.inc(tenant=tenant)
            return active
        if stored is _UNRESOLVED:
            stored = self.store.get(job)
        self._m_submitted.inc(tenant=tenant)
        if stored is not None:
            self._m_store_hits.inc()
            record = JobRecord(
                id=f"job-{next(self._seq)}",
                job=job,
                priority=priority,
                state=DONE,
                from_store=True,
                result=CampaignResult(
                    job=job,
                    payload=stored.payload,
                    wall_clock_s=stored.wall_clock_s,
                    lut_from_cache=True,
                ),
                finished_s=time.time(),
                tenant=tenant,
            )
            record.done_event.set()
            self.records[record.id] = record
            self._prune_records(keep=record.id)
            return record
        if self._pending >= self.config.queue_limit:
            self._m_rejected.inc(reason="queue_full")
            raise QueueFullError(
                f"job queue is full ({self._pending}/"
                f"{self.config.queue_limit} queued)"
            )
        self._m_store_misses.inc()
        record = JobRecord(
            id=f"job-{next(self._seq)}",
            job=job,
            priority=priority,
            tenant=tenant,
        )
        if resume:
            stored_ckpt = self.store.get_checkpoint(key)
            if stored_ckpt is not None:
                record.resume_text = stored_ckpt.text
        if job.warm_start != "off":
            record.warm_text = self._resolve_warm(job)
            if record.warm_text is not None:
                self._m_warm.inc(kind=job.warm_start)
        self.records[record.id] = record
        self._active[key] = record
        self._enqueue(record)
        self._prune_records(keep=record.id)
        return record

    def _enqueue(self, record: JobRecord) -> None:
        """Put a queued record on the priority queue (FIFO within a
        priority) and wake the parked lease polls."""
        self._pending += 1
        self._queue.put_nowait((record.priority, next(self._order), record))
        self._wake_lease_waiters(1)

    def _resolve_warm(self, job: CampaignJob) -> str | None:
        """Resolve a warm job's prior spec from this service's corpus.

        Runs at admission (synchronously — a store scan plus, for
        surrogate priors, cache-only LUT peeks and one least-squares
        fit over small feature matrices).  Every failure degrades to a
        cold start: warm starts accelerate jobs, they never gate them.
        """
        from repro.core.priors import resolve_prior_spec
        from repro.runtime.lutcache import open_cache

        cache = open_cache(self.config.cache_dir, self.config.cache_remote)
        resolver = cache.peek if cache is not None else None
        try:
            return resolve_prior_spec(
                job.warm_start,
                job.network,
                job.platform,
                job.mode,
                self.store,
                resolver,
            )
        except Exception:
            return None

    def _prune_records(self, keep: str) -> None:
        """Evict the oldest terminal records past ``keep_records``.

        A long-running service would otherwise grow memory linearly
        with submissions (every record keeps its full payload).
        Evicted payloads remain queryable through the result store;
        queued/running records are never evicted, nor is ``keep`` (the
        record the caller is about to hand to a client — an
        acknowledged job id must stay queryable at least once).

        Records are kept in submission order, so the victims are the
        first ``excess`` finished ones; the scan stops there.  Past the
        cap each submit evicts about one record, so eviction is
        amortized O(1) while the oldest records are finished.
        """
        excess = len(self.records) - self.config.keep_records
        if excess <= 0:
            return
        victims = []
        for record in self.records.values():
            if record.finished and record.id != keep:
                victims.append(record.id)
                if len(victims) == excess:
                    break
        for job_id in victims:
            del self.records[job_id]

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; returns False when it already left the
        queue (running or terminal jobs are not interrupted)."""
        record = self.records.get(job_id)
        if record is None or record.state != QUEUED:
            return False
        self._mark_cancelled(record)
        return True

    def _mark_cancelled(self, record: JobRecord) -> None:
        self._pending -= 1
        self._end_job(record, CANCELLED)

    def _end_job(
        self,
        record: JobRecord,
        state: str,
        error: str | None = None,
        result: CampaignResult | None = None,
    ) -> None:
        """Move a record to a terminal state — the one way a job ends.

        Stamps ``finished_s`` first, then ``error``/``result``, then
        ``state``: observers on other threads (status endpoints, the
        live-service test fixtures) treat a terminal state as "finished_s
        and the outcome are set".  Only then does the job key leave
        ``_active`` and progress streams wake.  Per-path work (lease
        state, metrics, busy accounting, checkpoint cleanup)
        stays with the callers.
        """
        record.finished_s = time.time()
        if error is not None:
            record.error = error
        if result is not None:
            record.result = result
        record.state = state
        self._active.pop(job_key(record.job), None)
        record.done_event.set()

    def preempt(self, record: JobRecord) -> bool:
        """Preempt a *running* job by revoking its lease.

        The worker's next heartbeat answers 409: it stops the search at
        its next checkpoint boundary (with checkpointing on) and
        discards the batch, and a late delivery is refused.  The
        targeted job is cancelled *now* (its latest heartbeat-carried
        checkpoint stays in the store for resumption); batch siblings
        were not the target and are explicitly **requeued**, not
        discarded, via :meth:`_release_job`.

        Returns False when the lease is already gone — the caller
        answers 409.
        """
        if record.state != RUNNING:
            return False
        lease_id = record.lease_id
        if lease_id is None:
            return False
        lease = self.store.get_lease(lease_id)
        if lease is None or not lease.live:
            return False
        self.store.finish_lease(lease_id, LEASE_RELEASED)
        for jid in lease.job_ids:
            sibling = self.records.get(jid)
            if (
                sibling is None
                or sibling.id == record.id
                or sibling.state != RUNNING
                or sibling.lease_id != lease_id
            ):
                continue
            self._release_job(
                sibling, "lease revoked by preemption", worker=lease.worker
            )
        record.lease_id = None
        record.worker = None
        self._m_preempted.inc()
        self._end_job(record, CANCELLED, error="preempted; lease revoked")
        return True

    def stats(self) -> dict:
        """Queue/worker/job counters (the ``/healthz`` body)."""
        states: dict[str, int] = {}
        for record in self.records.values():
            states[record.state] = states.get(record.state, 0) + 1
        return {
            "status": "shutting-down" if self._closing else "ok",
            "version": __version__,
            "workers": self.config.workers,
            "queue_depth": self._pending,
            "queue_limit": self.config.queue_limit,
            "jobs": states,
            "stored_results": len(self.store),
            "workers_registered": len(self.workers_info),
            "leases_active": len(self.store.active_leases()),
        }

    # -- workers -------------------------------------------------------------

    def register_worker(
        self, name: str | None = None, local: bool = False
    ) -> WorkerInfo:
        """Register a worker and return its :class:`WorkerInfo`.

        Local workers are registered by the service before their
        process forks; fleet hosts register over ``POST /workers``.
        Ids are unique per service lifetime (``w{seq}`` or
        ``w{seq}-{name}``), so two hosts sharing a ``--name`` still get
        distinct lease ownership.
        """
        if name is not None and not _valid_name(name):
            raise ConfigError(
                f"worker name {name!r} must be 1-64 chars of "
                "[A-Za-z0-9._-]"
            )
        worker_id = f"w{next(self._worker_seq)}"
        if name:
            worker_id = f"{worker_id}-{name}"
        info = WorkerInfo(id=worker_id, name=name or worker_id, local=local)
        self.workers_info[worker_id] = info
        return info

    def lease_batch(self, worker_id: str, max_jobs: int = 1) -> list[JobRecord]:
        """Grant up to ``max_jobs`` queued jobs under ONE lease.

        The batch shares a lease id, deadline and heartbeat: one
        round-trip claims it, one heartbeat keeps all of it alive, and
        a crash requeues all of it (each job keeping its own attempt
        budget).  Jobs leave the queue in priority order.  Returns
        ``[]`` when the queue holds nothing runnable (the worker polls
        again later).  Raises :class:`LeaseError` for unregistered
        workers — registration is what makes a crash attributable in
        ``GET /workers``.
        """
        info = self.workers_info.get(worker_id)
        if info is None:
            raise LeaseError(f"unknown worker {worker_id!r}; POST /workers first")
        info.last_seen_s = time.time()
        if self._closing:
            return []
        records: list[JobRecord] = []
        while len(records) < max_jobs:
            try:
                _, _, record = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if record.state != QUEUED:  # cancelled while queued
                continue
            records.append(record)
        if not records:
            return []
        self._grant_batch(records, info)
        return records

    def _grant_batch(self, records: list[JobRecord], info: WorkerInfo) -> None:
        """Move queued records to running under one fresh lease."""
        for record in records:
            record.state = RUNNING
            record.started_s = time.time()
            record.attempts += 1
            self._pending -= 1
        lease = self.store.create_lease(
            f"lease-{next(self._lease_seq)}",
            [record.id for record in records],
            [job_key(record.job) for record in records],
            info.id,
            self.config.lease_ttl_s,
            attempt=max(record.attempts for record in records),
        )
        for record in records:
            record.lease_id = lease.lease_id
            record.worker = info.id
            if record.resume_text is not None:
                self._m_resumed.inc()
        info.leases += 1
        info.last_seen_s = time.time()
        self._m_leases_granted.inc(worker=info.id)
        self._h_lease_batch.observe(float(len(records)))

    def _finish_record(
        self,
        record: JobRecord,
        info: WorkerInfo | None,
        result: CampaignResult | None,
        error: str | None,
    ) -> None:
        """Terminal path of one delivered job.

        Ends the record (:meth:`_end_job`) and updates worker
        accounting and metrics.  The caller owns the lease row and the
        store write: :meth:`finish_remote_batch` lands the whole
        lease's payloads through one :meth:`ResultStore.put_many` and
        closes the one lease row that covers every record.
        """
        if error is not None:
            self._end_job(record, FAILED, error=error)
            self._m_failed.inc(worker=record.worker or "unknown")
        else:
            self._end_job(record, DONE, result=result)
            self._m_completed.inc(worker=record.worker or "unknown")
            (self._m_lut_hits if result.lut_from_cache else self._m_lut_misses).inc()
        if info is not None:
            busy = record.finished_s - (record.started_s or record.finished_s)
            info.busy_s += busy
            info.last_seen_s = record.finished_s
            self._m_busy.inc(busy, worker=info.id)
            if error is None:
                info.completed += 1
            else:
                info.failed += 1
        # Checkpoint hygiene: a finished job's snapshot is dead weight
        # (and must not resurrect as a stale resume).  Guarded so the
        # common checkpointing-off path pays no store round-trip.
        if (
            self.config.checkpoint_every > 0
            or record.progress is not None
            or record.resume_text is not None
        ):
            try:
                self.store.delete_checkpoint(job_key(record.job))
            except Exception:
                pass

    def _persist_checkpoint(self, key: str, text: str) -> bool:
        """Land one encoded checkpoint in the store's checkpoint table.

        Returns whether the write (and the metric tick) happened; a
        malformed snapshot or a store failure is swallowed — losing a
        checkpoint costs a restart-from-scratch, never the job.
        """
        try:
            meta = json.loads(text)
            self.store.put_checkpoint(
                key,
                text,
                int(meta["format"]),
                int(meta["episode"]),
                float(meta["best_ms"]),
            )
        except Exception:
            return False
        self._m_checkpoints.inc()
        return True

    # -- lease lifecycle -----------------------------------------------------

    def heartbeat(self, lease_id: str, body: dict | None = None) -> dict:
        """Extend a lease's deadline by one TTL.

        Raises :class:`LeaseExpiredError` (HTTP 409) when the lease is
        no longer active — including the deadline having passed before
        the reaper noticed: the beat then expires the lease itself
        through :meth:`_expire`, requeueing its jobs, so the 409 is
        deterministic regardless of reaper timing.  The 409 is also how
        a *revoked* lease (``DELETE`` on a running job) tells its
        worker to stop.

        An optional body ``{"checkpoints": {job_id: text}}`` carries
        each job's latest encoded anytime checkpoint; every one owned
        by this lease is persisted (the store keeps only the newest
        per job key) and feeds the job's live ``progress`` events.
        """
        now = time.time()
        lease = self.store.heartbeat_lease(lease_id, self.config.lease_ttl_s, now)
        if lease is not None and lease.deadline_s < now:  # overdue, unextended
            self._expire(lease)
            lease = None
        if lease is None:
            raise LeaseExpiredError(
                f"lease {lease_id!r} is not active; the job has been "
                "requeued or finished — discard the work and lease afresh"
            )
        info = self.workers_info.get(lease.worker)
        if info is not None:
            info.last_seen_s = time.time()
        checkpoints = body.get("checkpoints") if isinstance(body, dict) else None
        if checkpoints is not None:
            self._absorb_checkpoints(lease, checkpoints)
        return lease.to_dict()

    def _absorb_checkpoints(self, lease, checkpoints) -> None:
        """Persist heartbeat-carried checkpoints for the lease's jobs.

        Only entries attributable to a job this lease currently owns
        land; malformed texts are dropped (losing one snapshot costs
        nothing — the next beat carries a newer one).
        """
        if not isinstance(checkpoints, dict):
            raise ConfigError(
                "'checkpoints' must map job ids to encoded checkpoint text"
            )
        for jid, text in checkpoints.items():
            record = self.records.get(str(jid))
            if (
                record is None
                or record.state != RUNNING
                or record.lease_id != lease.lease_id
                or not isinstance(text, str)
            ):
                continue
            if self._persist_checkpoint(job_key(record.job), text):
                meta = json.loads(text)
                record.progress = {
                    "episode": int(meta["episode"]),
                    "best_ms": float(meta["best_ms"]),
                }

    def finish_remote_batch(self, lease_id: str, body) -> tuple[int, dict]:
        """Apply a worker's ``POST /leases/{id}/results``.

        The only way a lease's results come back; a one-job lease is a
        batch of one.  ``body["results"]`` lists one entry per executed
        job: the ``job_id`` it answers plus either the encoded payload
        (``payload_kind``/``payload``/``wall_clock_s``/
        ``lut_from_cache``, as :func:`~repro.runtime.worker.encode_outcome`
        builds it — the wire JSON round-trips floats bitwise) or an
        ``{"error": ...}`` job failure.  Failure semantics are *per
        job* — one bad entry never poisons its siblings:

        * a worker-reported ``error`` marks that job failed
          (terminal, status ``failed``);
        * a malformed payload rejects that entry (status ``rejected``)
          and the job is requeued as undelivered;
        * a job missing from the body entirely is requeued
          (``requeued`` in the response lists the ids);
        * ``unknown_job``/``duplicate_entry``/``stale`` entries are
          reported and skipped.

        All successful payloads land through ONE
        :meth:`ResultStore.put_many` transaction (bitwise-identical
        rows to per-job :meth:`ResultStore.put`).  The lease goes
        ``released`` when anything was requeued, ``failed`` when
        everything delivered failed, ``completed`` otherwise; a
        duplicate delivery on a closed lease is idempotent and an
        expired/released lease raises :class:`LeaseExpiredError`.
        """
        if not isinstance(body, dict) or not isinstance(body.get("results"), list):
            raise ConfigError(
                "batch result submission needs a JSON body with a "
                "'results' array"
            )
        lease = self.store.get_lease(lease_id)
        if lease is None:
            raise LeaseError(f"unknown lease {lease_id!r}")
        if not lease.live:
            if lease.state in (LEASE_COMPLETED, LEASE_FAILED):
                return 200, {
                    "accepted": False,
                    "duplicate": True,
                    "lease": lease.to_dict(),
                }
            raise LeaseExpiredError(
                f"lease {lease_id!r} is {lease.state}; its jobs have been "
                "requeued — discard these results"
            )
        info = self.workers_info.get(lease.worker)
        job_ids = lease.job_ids
        statuses: list[dict] = []
        entries: dict[str, dict] = {}
        for entry in body["results"]:
            if not isinstance(entry, dict) or "job_id" not in entry:
                # Without a job_id the entry is unattributable — the
                # whole request is malformed, not one job of it.
                raise ConfigError(
                    "each entry of a batch result submission needs the "
                    "'job_id' it answers"
                )
            jid = str(entry["job_id"])
            if jid not in job_ids:
                statuses.append({"job_id": jid, "status": "unknown_job"})
            elif jid in entries:
                statuses.append({"job_id": jid, "status": "duplicate_entry"})
            else:
                entries[jid] = entry
        successes: list[tuple[JobRecord, CampaignResult]] = []
        undelivered: list[JobRecord] = []
        delivered = failures = 0
        for jid in job_ids:
            record = self.records.get(jid)
            owned = (
                record is not None
                and record.state == RUNNING
                and record.lease_id == lease_id
            )
            entry = entries.get(jid)
            if not owned:
                if entry is not None:
                    statuses.append({"job_id": jid, "status": "stale"})
                continue
            if entry is None:
                undelivered.append(record)
                continue
            error = entry.get("error")
            if error is not None:
                # A worker-*reported* error is a job failure (the job
                # ran and raised), not a worker crash — terminal, no
                # retry: searches are deterministic.
                self._finish_record(record, info, None, str(error))
                statuses.append({"job_id": jid, "status": "failed"})
                delivered += 1
                failures += 1
                continue
            try:
                kind = entry["payload_kind"]
                payload = payload_from_dict(kind, entry["payload"])
                wall_clock_s = float(entry["wall_clock_s"])
                lut_from_cache = bool(entry.get("lut_from_cache", False))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                statuses.append(
                    {
                        "job_id": jid,
                        "status": "rejected",
                        "error": f"malformed result: {exc}",
                    }
                )
                undelivered.append(record)
                continue
            successes.append(
                (
                    record,
                    CampaignResult(
                        job=record.job,
                        payload=payload,
                        wall_clock_s=wall_clock_s,
                        lut_from_cache=lut_from_cache,
                    ),
                )
            )
            delivered += 1
        persist_note = None
        if successes:
            # The one serialization of each result on this side: the
            # store row and every later GET /jobs/{id} share the text.
            for record, result in successes:
                record.encoded = _encode_payload(result.payload)
            try:
                _, flush_s = self.store.put_many(
                    [
                        (
                            record.job,
                            result.payload,
                            result.wall_clock_s,
                            record.encoded,
                        )
                        for record, result in successes
                    ]
                )
            except Exception as exc:
                # The computed results are still served from memory; a
                # store failure must not leave the records `running`.
                persist_note = (
                    f"result not persisted — {type(exc).__name__}: {exc}"
                )
            else:
                self._h_flush.observe(flush_s)
        for record, result in successes:
            self._finish_record(record, info, result, None)
            if persist_note is not None:
                record.error = persist_note
            statuses.append({"job_id": record.id, "status": "done"})
        requeued = []
        for record in undelivered:
            self._release_job(
                record, "result missing from batch delivery", worker=lease.worker
            )
            requeued.append(record.id)
        if requeued:
            terminal = LEASE_RELEASED
        elif delivered and failures == delivered:
            terminal = LEASE_FAILED
        else:
            terminal = LEASE_COMPLETED
        lease = self.store.finish_lease(lease_id, terminal) or lease
        return 200, {
            "accepted": True,
            "lease": lease.to_dict(),
            "results": statuses,
            "requeued": requeued,
        }

    def _release_job(
        self, record: JobRecord, reason: str, worker: str | None = None
    ) -> None:
        """Detach a running record from its lease and requeue it.

        Past ``max_lease_retries`` grants the job goes terminal
        ``failed`` instead (a job that reliably kills its workers must
        not crash-loop the fleet); during shutdown it is cancelled —
        there is nobody left to run it.
        """
        record.lease_id = None
        record.worker = None
        if self._closing:
            self._end_job(record, CANCELLED, error=f"{reason} during shutdown")
        elif record.attempts >= self.config.max_lease_retries:
            self._m_failed.inc(worker=worker or "unknown")
            self._end_job(
                record,
                FAILED,
                error=(
                    f"{reason} after {record.attempts} attempt(s); "
                    "retry budget exhausted"
                ),
            )
        else:
            # Crash recovery: a requeued job resumes from its latest
            # heartbeat-carried checkpoint instead of restarting from
            # episode 0.
            stored_ckpt = self.store.get_checkpoint(job_key(record.job))
            if stored_ckpt is not None:
                record.resume_text = stored_ckpt.text
            record.state = QUEUED
            record.started_s = None
            self._enqueue(record)
            self._m_requeued.inc()

    def _expire(self, lease) -> None:
        """Expire one active lease and requeue its jobs.

        The only writer of ``expired``: the reaper, a late heartbeat,
        an exited local worker and the shutdown drain all come here.
        The store's active-only guard settles a race with a result
        delivery — exactly one of the two ends the lease.
        """
        expired = self.store.finish_lease(lease.lease_id, LEASE_EXPIRED)
        if expired is not None:
            self._requeue_expired(expired)

    def _requeue_expired(self, lease) -> None:
        """React to one lease :meth:`_expire` just expired.

        Every job of the lease (one, or a whole batch) is requeued at
        its original priority with the attempt budget spent — see
        :meth:`_release_job` for the budget/shutdown terminal paths.
        """
        info = self.workers_info.get(lease.worker)
        if info is not None:
            info.expired += 1
        self._m_leases_expired.inc(worker=lease.worker)
        for jid in lease.job_ids:
            record = self.records.get(jid)
            if (
                record is None
                or record.state != RUNNING
                or record.lease_id != lease.lease_id
            ):
                continue  # already finished under this or another lease
            self._release_job(record, "lease expired", worker=lease.worker)

    async def _reap_leases(self) -> None:
        """Periodically expire overdue leases and requeue their jobs,
        and replace local worker processes that exited."""
        while True:
            await asyncio.sleep(self.config.lease_check_s)
            for lease in self.store.due_leases():
                self._expire(lease)
            self._reap_local_workers()
            # Checkpoint retention: drop snapshots nothing refreshed
            # for checkpoint_ttl_s (their jobs went terminal on some
            # path that could not delete them, or were never resumed).
            self.store.gc_checkpoints(self.config.checkpoint_ttl_s)

    # -- local workers -------------------------------------------------------

    def _spawn_local_worker(self, index: int) -> None:
        """Register local worker slot ``index`` and fork its process."""
        info = self.register_worker(f"local-{index}", local=True)
        process = multiprocessing.get_context("fork").Process(
            target=self._local_worker_main,
            args=(info.id,),
            name=info.id,
            daemon=True,
        )
        process.start()
        self._local[info.id] = (index, process)

    def _local_worker_main(self, worker_id: str) -> None:
        """Body of a forked local worker: the fleet loop over loopback.

        The child first closes its copies of the listening socket and
        of every client connection, so it never holds a client's
        connection or the port open, and leaves the parent's signal
        wiring: SIGINT is the service's to handle (it drains, then
        stops its workers with SIGTERM).
        """
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        host = self._server.sockets[0].getsockname()[0]
        host = {"0.0.0.0": "127.0.0.1", "::": "::1"}.get(host, host)
        if ":" in host:
            host = f"[{host}]"
        sockets = list(self._server.sockets) + [
            writer.get_extra_info("socket") for writer in self._connections
        ]
        for sock in sockets:
            if sock is not None and sock.fileno() >= 0:
                os.close(sock.fileno())
        worker = FleetWorker(
            WorkerConfig(
                server=f"http://{host}:{self.port}",
                cache_dir=self.config.cache_dir,
                cache_remote=self.config.cache_remote,
            )
        )
        worker.worker_id = worker_id
        worker.heartbeat_s = self.config.lease_ttl_s / 3.0
        worker.run()

    def _reap_local_workers(self) -> None:
        """Expire the leases of every local worker process that exited
        and, unless the service is shutting down, fork a replacement
        into its slot."""
        for worker_id, (index, process) in list(self._local.items()):
            if process.is_alive():
                continue
            process.join()
            process.close()
            del self._local[worker_id]
            self._expire_worker_leases(worker_id)
            if not self._closing:
                self._spawn_local_worker(index)

    def _expire_worker_leases(self, worker_id: str) -> None:
        """Expire every active lease of a worker that will never
        heartbeat or deliver again, requeueing its jobs through
        :meth:`_expire` (retry budget included)."""
        for lease in self.store.active_leases():
            if lease.worker == worker_id:
                self._expire(lease)

    async def _stop_local_workers(self) -> None:
        """SIGTERM every local worker process and reap it (SIGKILL past
        ``HANDLER_EXIT_TIMEOUT_S``)."""
        processes = [process for _, process in self._local.values()]
        self._local.clear()
        for process in processes:
            process.terminate()
        deadline = time.monotonic() + HANDLER_EXIT_TIMEOUT_S
        while any(p.is_alive() for p in processes) and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        for process in processes:
            process.kill()
            process.join()
            process.close()

    # -- long-poll leasing ---------------------------------------------------

    def _wake_lease_waiters(self, count: float = math.inf) -> None:
        """Wake up to ``count`` parked lease polls: one per queued job,
        every one when the service shuts down."""
        for waiter in self._lease_waiters:
            if count <= 0:
                return
            if not waiter.done():
                waiter.set_result(None)
                count -= 1

    async def _await_lease(
        self, worker_id: str, max_jobs: int, wait_s: float, gone
    ) -> list[JobRecord]:
        """Hold an empty lease poll until a job is queued (or requeued),
        ``wait_s`` runs out or shutdown begins, leasing again on each
        wake.  ``gone()`` says the client hung up: it is leased nothing,
        so no grant is lost on a dead connection, and its wake passes on
        to the next parked poll."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + wait_s
        while not self._closing:
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            waiter = loop.create_future()
            self._lease_waiters.add(waiter)
            try:
                await asyncio.wait((waiter,), timeout=remaining)
            finally:
                self._lease_waiters.discard(waiter)
            if gone():
                if self._pending:
                    self._wake_lease_waiters(1)
                break
            records = self.lease_batch(worker_id, max_jobs)
            if records:
                return records
        return []

    # -- progress streaming --------------------------------------------------

    async def progress_events(self, record: JobRecord):
        """Async iterator of progress events for one job.

        Yields ``status`` heartbeats (every ``heartbeat_s`` while the
        job is queued/running) interleaved with live ``progress``
        events whenever an in-loop anytime checkpoint advances the
        job's episode counter, then — once finished — the best-so-far
        ``checkpoint`` sequence of :func:`checkpoints_of` and one
        terminal ``done``/``failed``/``cancelled`` event.
        """
        yield "status", {"id": record.id, "state": record.state}
        last_episode = -1
        while not record.finished:
            progress = record.progress
            if progress is not None and progress["episode"] > last_episode:
                last_episode = progress["episode"]
                yield "progress", {"id": record.id, **progress}
            try:
                await asyncio.wait_for(
                    record.done_event.wait(), timeout=self.config.heartbeat_s
                )
            except asyncio.TimeoutError:
                yield "status", {"id": record.id, "state": record.state}
        if record.state == DONE:
            assert record.result is not None
            for point in checkpoints_of(record.result.payload):
                yield "checkpoint", point
            yield (
                "done",
                {
                    "id": record.id,
                    "best_ms": best_ms_of(record.result.payload),
                    "wall_clock_s": record.result.wall_clock_s,
                    "from_store": record.from_store,
                },
            )
        else:
            yield record.state, {"id": record.id, "error": record.error}

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the HTTP server, then fork the local workers."""
        # A crashed predecessor sharing this store may have left
        # active lease rows behind; nobody will ever heartbeat them.
        self.store.release_active_leases()
        self._server = await asyncio.start_server(
            self._handle_client, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        for index in range(self.config.workers):
            self._spawn_local_worker(index)
        self._reaper = asyncio.create_task(self._reap_leases())

    def _spawn_shutdown(self) -> asyncio.Task:
        """Start :meth:`shutdown` as a task the service itself keeps
        alive.

        The event loop holds tasks weakly — a ``create_task`` result
        nobody references can be garbage-collected mid-drain, silently
        abandoning the shutdown.  Idempotent: a second trigger (signal
        plus ``POST /shutdown``, say) reuses the in-flight task.
        """
        if self._shutdown_task is None or self._shutdown_task.done():
            self._shutdown_task = asyncio.get_running_loop().create_task(
                self.shutdown()
            )
        return self._shutdown_task

    async def shutdown(self) -> None:
        """Graceful shutdown: refuse intake, cancel queued jobs, drain
        outstanding leases, stop the local workers, then release every
        resource.

        The HTTP server stays open through the lease drain — workers
        deliver results over *new* connections, so closing the
        listener first would discard work that is seconds from done.
        """
        if self._closing:
            await self._closed.wait()
            return
        self._closing = True
        self._wake_lease_waiters()
        for record in list(self.records.values()):
            if record.state == QUEUED:
                self._mark_cancelled(record)
        # Drain leases, local and remote alike: give outstanding jobs
        # up to drain_timeout_s to POST their results (expiries and
        # exited local workers during the drain cancel their jobs via
        # _requeue_expired's closing path).
        deadline = time.monotonic() + self.config.drain_timeout_s
        while self.store.active_leases() and time.monotonic() < deadline:
            for lease in self.store.due_leases():
                self._expire(lease)
            self._reap_local_workers()
            await asyncio.sleep(0.05)
        # Past the drain window: release what is left and cancel the
        # jobs (requeueing would be a lie — workers lease nothing once
        # _closing is set).
        for lease in self.store.active_leases():
            self.store.finish_lease(lease.lease_id, LEASE_RELEASED)
            for jid in lease.job_ids:
                record = self.records.get(jid)
                if (
                    record is not None
                    and record.state == RUNNING
                    and record.lease_id == lease.lease_id
                ):
                    self._end_job(record, CANCELLED, error="lease released at shutdown")
        await self._stop_local_workers()
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
        # Sever lingering client connections (idle keep-alives, open
        # progress streams — every job is terminal by now).  Without
        # this, wait_closed() on Python >= 3.12.1 blocks until every
        # connection handler returns, so one idle client would hang
        # shutdown forever.
        handlers = list(self._connections.values())
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        # A severed handler still has to see EOF and return: await them
        # (bounded), so none is left pending when the loop stops.
        if handlers:
            await asyncio.wait(handlers, timeout=HANDLER_EXIT_TIMEOUT_S)
        self.store.close()
        self._closed.set()

    async def serve_forever(self) -> None:
        """Run until :meth:`shutdown` completes (the ``repro serve`` body)."""
        if self._server is None:
            await self.start()
        await self._closed.wait()

    async def wait_closed(self) -> None:
        """Block until a (possibly remote) shutdown has fully completed."""
        await self._closed.wait()

    # -- HTTP layer ----------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections[writer] = asyncio.current_task()
        loop = asyncio.get_running_loop()
        transport = writer.transport
        served = 0
        try:
            while True:
                # The read's deadline is a timer on the connection (no
                # Task per request): past it the transport is aborted
                # and the pending read sees EOF.
                deadline = loop.call_later(REQUEST_READ_TIMEOUT_S, transport.abort)
                try:
                    request = await _read_request(reader, self._body_limit)
                except (ConfigError, asyncio.IncompleteReadError):
                    if transport.is_closing():
                        return  # slow/idle client — drop without a response
                    raise
                finally:
                    deadline.cancel()
                if request is None:
                    return
                method, path, query, headers, body = request
                served += 1
                # HTTP/1.1 default is keep-alive; honour an explicit
                # close, bound requests per connection, and stop
                # reusing once shutdown starts draining.
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                    and served < MAX_REQUESTS_PER_CONNECTION
                    and not self._closing
                )
                writer.keep_alive = keep_alive  # read by _respond*
                reusable = await self._route(
                    reader, writer, method, path, query, headers, body
                )
                if not (keep_alive and reusable):
                    return
        except ConfigError as error:
            # Malformed wire requests (bad request line, oversized
            # headers/body, non-JSON payload) get a 400, not a drop —
            # and never a reused connection (framing is unknown).
            # The client may already be gone — that is not an error.
            try:
                writer.keep_alive = False
                await _respond(writer, 400, {"error": str(error)})
            except (ConnectionError, OSError):
                pass
        except ConnectionError:
            pass
        finally:
            self._connections.pop(writer, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(
        self, reader, writer, method: str, path: str, query, headers, body
    ) -> bool:
        """Dispatch one request; returns whether the connection may be
        reused for another (False after SSE streams and shutdown)."""
        parts = [p for p in path.split("/") if p]
        # Observability first: /healthz and /metrics must answer even
        # when the queue is full, a tenant is rate-limited, or the
        # service is draining — a saturated service that cannot be
        # scraped cannot be operated.  Neither endpoint touches any
        # admission guard below.
        if method == "GET" and parts == ["healthz"]:
            await _respond(writer, 200, self.stats())
            return True
        if method == "GET" and parts == ["metrics"]:
            await _respond_text(
                writer,
                200,
                self.metrics.render(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
            return True
        try:
            if method == "GET" and not parts:
                await _respond(writer, 200, self._index())
            elif method == "POST" and parts == ["jobs"]:
                await self._post_jobs(writer, headers, body)
            elif method == "GET" and parts == ["jobs"]:
                records = [r.to_dict() for r in self.records.values()]
                await _respond(writer, 200, {"jobs": records})
            elif method == "GET" and len(parts) == 2 and parts[0] == "jobs":
                record = self.records.get(parts[1])
                if record is None:
                    await _respond(writer, 404, {"error": f"no job {parts[1]!r}"})
                else:
                    await _respond(writer, 200, record.to_json())
            elif (
                method == "GET"
                and len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "progress"
            ):
                record = self.records.get(parts[1])
                if record is None:
                    await _respond(writer, 404, {"error": f"no job {parts[1]!r}"})
                else:
                    await self._stream_progress(writer, record)
                    return False  # the SSE stream consumed the connection
            elif method == "DELETE" and len(parts) == 2 and parts[0] == "jobs":
                record = self.records.get(parts[1])
                if record is None:
                    await _respond(writer, 404, {"error": f"no job {parts[1]!r}"})
                elif self.cancel(parts[1]):
                    await _respond(writer, 200, record.to_dict())
                elif record.state == RUNNING and self.preempt(record):
                    body = record.to_dict()
                    body["preempting"] = True
                    await _respond(writer, 202, body)
                else:
                    await _respond(
                        writer,
                        409,
                        {
                            "error": f"job {parts[1]} is {record.state}; "
                            "only queued jobs can be cancelled"
                        },
                    )
            elif method == "GET" and parts == ["results"]:
                await self._get_results(writer, query)
            elif method == "GET" and parts == ["luts"]:
                await self._list_luts(writer)
            elif method in ("GET", "PUT") and len(parts) == 3 and parts[0] == "luts":
                if method == "GET":
                    await self._get_lut(writer, parts[1], parts[2], query)
                else:
                    await self._put_lut(writer, parts[1], parts[2], query, body)
            elif method == "POST" and parts == ["workers"]:
                name = (body or {}).get("name") if isinstance(body, dict) else None
                info = self.register_worker(name)
                await _respond(
                    writer,
                    201,
                    {
                        "worker": info.to_dict(),
                        "lease_ttl_s": self.config.lease_ttl_s,
                        "heartbeat_s": self.config.lease_ttl_s / 3.0,
                    },
                )
            elif method == "GET" and parts == ["workers"]:
                await _respond(
                    writer,
                    200,
                    {
                        "workers": [
                            info.to_dict()
                            for info in self.workers_info.values()
                        ],
                        "leases": [
                            lease.to_dict()
                            for lease in self.store.active_leases()
                        ],
                    },
                )
            elif method == "POST" and parts == ["leases"]:
                await self._post_leases(reader, writer, body)
            elif (
                method == "POST"
                and len(parts) == 3
                and parts[0] == "leases"
                and parts[2] == "heartbeat"
            ):
                await _respond(
                    writer, 200, {"lease": self.heartbeat(parts[1], body)}
                )
            elif (
                method == "POST"
                and len(parts) == 3
                and parts[0] == "leases"
                and parts[2] == "results"
            ):
                self._observe_result_bytes(headers)
                status, payload = self.finish_remote_batch(parts[1], body)
                await _respond(writer, status, payload)
            elif method == "POST" and parts == ["shutdown"]:
                await _respond(writer, 202, {"shutting_down": True})
                self._spawn_shutdown()
                return False  # the service is draining — no more requests
            else:
                await _respond(writer, 404, {"error": f"no route {method} {path}"})
        except QueueFullError as error:
            # QuotaExceededError rides the same arm: it subclasses
            # QueueFullError and carries its own Retry-After hint.
            retry_after = max(1, math.ceil(getattr(error, "retry_after_s", 1.0)))
            await _respond(
                writer,
                429,
                {"error": str(error)},
                headers={"Retry-After": str(retry_after)},
            )
        except LeaseError as error:
            await _respond(writer, 409, {"error": str(error)})
        except (ConfigError, LutCacheError) as error:
            # LutCacheError here is a *client* problem (bad shard
            # segment, entry mismatching its key) — the local tier
            # itself is strict and healthy.
            await _respond(writer, 400, {"error": str(error)})
        except ServiceError as error:
            await _respond(writer, 503, {"error": str(error)})
        except (ValueError, TypeError) as error:
            # Bad field values that slip past explicit validation
            # (e.g. an unknown Mode, a non-integer episodes/seed) must
            # still answer 400, not drop the connection.
            await _respond(writer, 400, {"error": str(error)})
        return True

    async def _post_leases(self, reader, writer, body) -> None:
        """``POST /leases``: grant a batch, long-polling when asked.

        An empty queue answers 204 — after holding the request up to
        ``wait_s`` seconds for a job to arrive — and a draining service
        answers 503, so a polling worker backs off instead of spinning.
        """
        if not isinstance(body, dict) or "worker" not in body:
            raise ConfigError("POST /leases needs a JSON body with a 'worker' id")
        raw_max = body.get("max_jobs", 1)
        if isinstance(raw_max, bool) or not isinstance(raw_max, int):
            raise ConfigError("max_jobs must be an integer >= 1")
        if raw_max < 1:
            raise ConfigError(f"max_jobs must be >= 1, got {raw_max}")
        wait_s = body.get("wait_s", 0)
        if (
            isinstance(wait_s, bool)
            or not isinstance(wait_s, (int, float))
            or not 0 <= wait_s < math.inf
        ):
            raise ConfigError(f"wait_s must be a number >= 0, got {wait_s!r}")
        worker_id = str(body["worker"])
        max_jobs = min(raw_max, self.config.lease_batch_limit)
        records = self.lease_batch(worker_id, max_jobs)
        if not records and wait_s > 0:
            records = await self._await_lease(
                worker_id,
                max_jobs,
                wait_s,
                gone=lambda: reader.at_eof() or writer.is_closing(),
            )
        if not records:
            if self._closing:
                raise ServiceError("service is shutting down; no new leases")
            await _respond_empty(writer, 204)
            return
        lease = self.store.get_lease(records[0].lease_id)
        grant = {
            "lease": lease.to_dict(),
            "jobs": [r.to_dict() for r in records],
            "lease_ttl_s": self.config.lease_ttl_s,
        }
        if self.config.checkpoint_every > 0:
            grant["checkpoint_every"] = self.config.checkpoint_every
        resume = {r.id: r.resume_text for r in records if r.resume_text is not None}
        if resume:
            grant["resume"] = resume
        warm = {r.id: r.warm_text for r in records if r.warm_text is not None}
        if warm:
            grant["warm"] = warm
        await _respond(writer, 200, grant)

    def _body_limit(self, method: str, path: str) -> int:
        """Maximum request body accepted on this route.

        Result delivery (``POST /leases/{id}/results``) carries up to
        ``lease_batch_limit`` encoded payloads in one body, each of
        which must individually fit the flat 1 MiB cap — so its
        allowance scales with the batch limit instead of rejecting (and
        thereby discarding) a full batch of executed results at 1 MiB.
        Heartbeats get the same scaled allowance: their checkpoint
        carriage ships up to a batch's worth of Q-table snapshots.
        """
        parts = [p for p in path.split("/") if p]
        if (
            method == "POST"
            and len(parts) == 3
            and parts[0] == "leases"
            and parts[2] in ("results", "heartbeat")
        ):
            return MAX_BODY_BYTES * max(1, self.config.lease_batch_limit)
        return MAX_BODY_BYTES

    def _observe_result_bytes(self, headers: dict) -> None:
        """Feed a result delivery's body size to its histogram."""
        try:
            size = int(headers.get("content-length", "0") or "0")
        except ValueError:
            return
        self._h_result_bytes.observe(float(size))

    def _index(self) -> dict:
        return {
            "service": "qs-dnn campaign service",
            "version": __version__,
            "endpoints": [
                "GET /healthz",
                "GET /metrics",
                "POST /jobs",
                "GET /jobs",
                "GET /jobs/{id}",
                "GET /jobs/{id}/progress",
                "DELETE /jobs/{id}",
                "GET /results",
                "GET /luts",
                "GET /luts/{platform}/{network}",
                "PUT /luts/{platform}/{network}",
                "POST /workers",
                "GET /workers",
                "POST /leases",
                "POST /leases/{id}/heartbeat",
                "POST /leases/{id}/results",
                "POST /shutdown",
            ],
        }

    # -- LUT shard serving ---------------------------------------------------

    def _lut_key(self, platform: str, network: str, query: dict) -> LutKey:
        """Build (and validate) the shard key a ``/luts`` request names.

        ``mode`` is required; ``seed``/``repeats`` default to the job
        defaults and ``version`` to this server's package version, so
        a hand-typed curl still addresses the common entry.
        """
        mode = query.get("mode")
        if mode is None:
            raise ConfigError("the 'mode' query parameter is required")
        try:
            seed = int(query.get("seed", "0"))
            repeats = int(query.get("repeats", "50"))
        except ValueError as error:
            raise ConfigError(f"bad LUT key parameter: {error}") from None
        return LutKey(
            platform=platform,
            network=network,
            mode=mode,
            seed=seed,
            repeats=repeats,
            version=query.get("version", __version__),
        )

    async def _list_luts(self, writer) -> None:
        # Tier calls walk the shard tree on disk — run them on the
        # default thread pool so slow disks cannot stall the event
        # loop (and with it every SSE heartbeat in flight).
        loop = asyncio.get_running_loop()
        keys = (
            await loop.run_in_executor(None, self._lut_tier.keys)
            if self._lut_tier is not None
            else []
        )
        await _respond(
            writer,
            200,
            {
                "enabled": self._lut_tier is not None,
                "count": len(keys),
                "luts": [key.to_dict() for key in keys],
            },
        )

    async def _get_lut(self, writer, platform: str, network: str, query) -> None:
        key = self._lut_key(platform, network, query)
        text = (
            await asyncio.get_running_loop().run_in_executor(
                None, self._lut_tier.get, key
            )
            if self._lut_tier is not None
            else None
        )
        if text is None:
            await _respond(
                writer,
                404,
                {"error": f"no cached LUT for {key.shard}/{key.filename}"},
            )
            return
        # Entries are validated on write; served verbatim from disk
        # (the loads/dumps hop is float-exact either way).
        await _respond(writer, 200, json.loads(text))

    async def _put_lut(self, writer, platform: str, network: str, query, body) -> None:
        if self._lut_tier is None:
            raise ServiceError(
                "this instance has no --cache-dir and does not accept "
                "LUT shards"
            )
        if not isinstance(body, dict):
            raise ConfigError("PUT /luts body must be a LUT JSON object")
        key = self._lut_key(platform, network, query)

        def _validate_and_store() -> bool:
            # Validate before publishing: a mislabeled or corrupt entry
            # must never enter the fleet's cache.  Storing the
            # canonical to_json() text keeps shard bytes identical no
            # matter which client pushed them (floats are exact
            # through the re-parse).  Runs off-loop: the re-parse plus
            # the shard index rebuild are the costliest handler work.
            lut = validate_entry(json.dumps(body), key)
            existed = self._lut_tier.path_for(key).exists()
            self._lut_tier.put(key, lut.to_json())
            return existed

        existed = await asyncio.get_running_loop().run_in_executor(
            None, _validate_and_store
        )
        await _respond(
            writer,
            200 if existed else 201,
            {"stored": True, "existed": existed, "key": key.to_dict()},
        )

    async def _post_jobs(self, writer, headers, body) -> None:
        tenant = (headers or {}).get("x-tenant", DEFAULT_TENANT)
        if not _valid_name(tenant):
            raise ConfigError(f"tenant {tenant!r} must be 1-64 chars of [A-Za-z0-9._-]")
        # Rate limit before parsing: a tenant hammering the endpoint
        # with garbage must not get free validation cycles.
        if self.config.rate_limit_per_s > 0:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    self.config.rate_limit_per_s, self.config.rate_burst
                )
            wait = bucket.take()
            if wait > 0:
                self._m_rejected.inc(reason="rate_limit")
                raise QuotaExceededError(
                    f"tenant {tenant!r} exceeded "
                    f"{self.config.rate_limit_per_s}/s on POST /jobs",
                    retry_after_s=wait,
                )
        # `"resume": true` rides any submission form: each accepted job
        # is attached its stored checkpoint (if one exists) and the
        # grant continues the interrupted search.  Popped before
        # jobs_from_body — it is submission policy, not a job field.
        resume = False
        if isinstance(body, dict) and "resume" in body:
            body = dict(body)
            resume = body.pop("resume")
            if not isinstance(resume, bool):
                raise ConfigError(f"resume must be a boolean, got {resume!r}")
        jobs, priority = jobs_from_body(body)
        # All-or-nothing admission: a partially accepted grid would
        # leave the client guessing which cells ran.  One store lookup
        # per job serves both the slot count and the submit below
        # (there is no await between here and the submits, so the
        # counts cannot go stale).
        lookups = [(job, self.store.get(job)) for job in jobs]
        free = self.config.queue_limit - self._pending
        fresh = sum(
            1
            for job, hit in lookups
            if job_key(job) not in self._active and hit is None
        )
        if self.config.quota_jobs > 0:
            active = sum(
                1
                for record in self._active.values()
                if record.tenant == tenant
            )
            if active + fresh > self.config.quota_jobs:
                self._m_rejected.inc(reason="quota")
                raise QuotaExceededError(
                    f"tenant {tenant!r} quota is {self.config.quota_jobs} "
                    f"active job(s); {active} active, submission adds "
                    f"{fresh}",
                    retry_after_s=1.0,
                )
        if fresh > free:
            self._m_rejected.inc(reason="queue_full")
            raise QueueFullError(
                f"job queue is full: submission needs {fresh} slot(s), "
                f"{free} free (limit {self.config.queue_limit})"
            )
        records = [
            self.submit(
                job, priority=priority, stored=hit, tenant=tenant, resume=resume
            )
            for job, hit in lookups
        ]
        await _respond(writer, 202, {"jobs": [record.to_dict() for record in records]})

    async def _get_results(self, writer, query) -> None:
        unknown = set(query) - {"network", "platform", "mode", "kind", "seed"}
        if unknown:
            # A typo'd filter must not silently return the whole
            # corpus as if it matched (same contract as POST /jobs).
            raise ConfigError(f"unknown result filter(s): {sorted(unknown)}")
        seed = query.get("seed")
        rows = self.store.query(
            network=query.get("network"),
            platform=query.get("platform"),
            mode=query.get("mode"),
            kind=query.get("kind"),
            seed=int(seed) if seed is not None else None,
        )
        results = [
            {
                "key": job_key(row.job),
                "job": row.job.to_dict(),
                "best_ms": row.best_ms,
                "wall_clock_s": row.wall_clock_s,
                "created_s": row.created_s,
            }
            for row in rows
        ]
        await _respond(writer, 200, {"count": len(results), "results": results})

    async def _stream_progress(self, writer, record: JobRecord) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        async for event, data in self.progress_events(record):
            writer.write(f"event: {event}\ndata: {json.dumps(data)}\n\n".encode())
            await writer.drain()


# -- wire helpers ------------------------------------------------------------

_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    429: "Too Many Requests",
    503: "Service Unavailable",
}


async def _read_request(reader: asyncio.StreamReader, body_limit=None):
    """Parse one HTTP/1.1 request:
    ``(method, path, query, headers, json_body)``.

    ``body_limit`` maps ``(method, path)`` to the maximum accepted
    Content-Length for that route (default: ``MAX_BODY_BYTES`` for
    everything).  Returns None on an empty connection (client
    connected and left).  Raises :class:`ConfigError` for malformed
    requests so the router answers 400 instead of dropping the
    connection.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ConfigError("truncated HTTP request") from None
    except asyncio.LimitOverrunError:
        raise ConfigError("request headers too large") from None
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _ = lines[0].split(" ", 2)
    except ValueError:
        raise ConfigError(f"malformed request line {lines[0]!r}") from None
    method = method.upper()
    split = urlsplit(target)
    headers = {}
    for line in lines[1:]:
        if ":" in line:
            name, value = line.split(":", 1)
            headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise ConfigError("malformed Content-Length header") from None
    limit = body_limit(method, split.path) if body_limit else MAX_BODY_BYTES
    if length > limit:
        raise ConfigError(
            f"request body of {length} bytes exceeds the "
            f"{limit}-byte limit for {method} {split.path}"
        )
    raw = await reader.readexactly(length) if length else b""
    body = None
    if raw:
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ConfigError(f"request body is not JSON: {error}") from None
    query = {key: values[-1] for key, values in parse_qs(split.query).items()}
    return method, split.path, query, headers, body


def _connection_header(writer) -> str:
    """The Connection header this response must carry.

    ``_handle_client`` stamps its keep-alive decision on the writer
    before routing (responses are Content-Length framed, so a reused
    connection stays in sync); anything without the stamp — early
    400s, tests driving ``_respond`` directly — closes.
    """
    return (
        "Connection: keep-alive"
        if getattr(writer, "keep_alive", False)
        else "Connection: close"
    )


async def _respond(
    writer, status: int, payload: dict | str, headers: dict | None = None
) -> None:
    """Write one JSON response and flush (a ``str`` payload is JSON
    text already)."""
    if not isinstance(payload, str):
        payload = json.dumps(payload)
    body = payload.encode() + b"\n"
    text = _STATUS_TEXT.get(status, "OK")
    head = [
        f"HTTP/1.1 {status} {text}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        _connection_header(writer),
    ]
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
    await writer.drain()


async def _respond_text(
    writer, status: int, text: str, content_type: str = "text/plain"
) -> None:
    """Write one plain-text response (the ``/metrics`` exposition)."""
    body = text.encode()
    head = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        _connection_header(writer),
    ]
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
    await writer.drain()


async def _respond_empty(writer, status: int) -> None:
    """Write one body-less response (204 lease polls)."""
    head = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}",
        "Content-Length: 0",
        _connection_header(writer),
    ]
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode())
    await writer.drain()


def run_service(config: ServiceConfig | None = None) -> int:
    """Run a service until SIGINT/SIGTERM or ``POST /shutdown``.

    The blocking entry point behind ``repro serve``: installs signal
    handlers for graceful shutdown and prints the bound address (parse
    the ``serving on`` line to discover a ``--port 0`` choice).
    """
    import signal

    service = CampaignService(config)

    async def _main() -> int:
        await service.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, service._spawn_shutdown)
        print(
            f"serving on http://{service.config.host}:{service.port} "
            f"({service.config.workers} worker(s), "
            f"queue limit {service.config.queue_limit}, "
            f"store {service.store.path})",
            flush=True,
        )
        await service.serve_forever()
        print("service stopped", flush=True)
        return 0

    return asyncio.run(_main())
