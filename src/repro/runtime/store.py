"""Persistent result store: solved search scenarios, queryable by key.

The campaign service (:mod:`repro.runtime.service`) treats every
:class:`~repro.runtime.campaign.CampaignJob` as an *instance* of the
primitive-selection problem.  Solved instances are worth keeping:
repeated submissions of the same (network, platform, mode, seed,
kernel, ...) scenario become cache hits instead of re-running the
search, and the accumulated corpus is exactly the transfer-learning
substrate the ROADMAP's warm-start item needs (per Mulder et al.,
searches of related networks/platforms initialize new ones).

:class:`ResultStore` is sqlite-backed (stdlib ``sqlite3``; pass
``":memory:"`` for an ephemeral store) and keyed by the *full* job
identity — every :class:`CampaignJob` field participates, so two jobs
collide only when they would compute byte-identical payloads.  Payloads
are stored as JSON; Python's ``json`` emits shortest-round-trip float
literals, so ``best_ms`` (and every curve entry) survives the
round-trip **bitwise** — the store can answer for a live search without
perturbing Table II or the service's exactness contract.

Write throughput is a first-class concern (the fleet's batched result
deliveries land many rows per request): file-backed stores run in WAL
mode with ``synchronous=NORMAL`` (one fsync per commit, not per page),
:meth:`ResultStore.put_many` lands a whole batch in one transaction,
and an optional *group-commit* buffer (``group_commit=N``) coalesces
individual :meth:`ResultStore.put` calls into batched commits the
service flushes on batch boundaries and shutdown.  The durability
trade-offs are spelled out in ``docs/fleet.md``; none of the batching
changes a single stored byte — reads always see buffered writes
(they flush first), and every row is the same 16-column tuple a
commit-per-write store would produce.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.core.config import SearchConfig
from repro.core.multi_seed import MultiSeedResult
from repro.core.result import SearchResult
from repro.errors import ConfigError
from repro.runtime.campaign import CampaignJob

#: Bump when the row layout or payload encoding changes; rows written
#: under another schema are ignored (never mis-decoded).
STORE_SCHEMA_VERSION = 1

_TABLE_DDL = """
CREATE TABLE IF NOT EXISTS results (
    key TEXT PRIMARY KEY,
    schema_version INTEGER NOT NULL,
    network TEXT NOT NULL,
    platform TEXT NOT NULL,
    mode TEXT NOT NULL,
    seed INTEGER NOT NULL,
    kind TEXT NOT NULL,
    kernel TEXT NOT NULL,
    episodes INTEGER,
    repeats INTEGER NOT NULL,
    seeds INTEGER NOT NULL,
    payload_kind TEXT NOT NULL,
    payload TEXT NOT NULL,
    best_ms REAL,
    wall_clock_s REAL NOT NULL,
    created_s REAL NOT NULL
)
"""

_CHECKPOINT_DDL = """
CREATE TABLE IF NOT EXISTS checkpoints (
    job_key TEXT PRIMARY KEY,
    format INTEGER NOT NULL,
    episode INTEGER NOT NULL,
    best_ms REAL,
    checkpoint TEXT NOT NULL,
    updated_s REAL NOT NULL
)
"""

_LEASE_DDL = """
CREATE TABLE IF NOT EXISTS leases (
    lease_id TEXT PRIMARY KEY,
    job_id TEXT NOT NULL,
    job_key TEXT NOT NULL,
    worker TEXT NOT NULL,
    state TEXT NOT NULL,
    attempt INTEGER NOT NULL,
    created_s REAL NOT NULL,
    deadline_s REAL NOT NULL,
    heartbeats INTEGER NOT NULL,
    finished_s REAL
)
"""

#: The table gains a row per lease and keeps it; the live ones are a
#: handful.  This partial index holds only those, so every query on
#: active leases (the metrics gauges, the reaper sweep, the drain loop,
#: start/stop hygiene) costs O(active leases), not O(table).
_LEASE_ACTIVE_INDEX_DDL = (
    "CREATE INDEX IF NOT EXISTS leases_active ON leases(state) "
    "WHERE state = 'active'"
)

#: Lease lifecycle states.  ``active`` is the only live state;
#: ``completed``/``failed`` are worker-reported outcomes, ``expired``
#: means the reaper (or a late heartbeat check) found the deadline
#: passed, ``released`` means the service let go of the lease itself
#: (shutdown, or stale rows from a previous service process).
LEASE_ACTIVE, LEASE_COMPLETED, LEASE_FAILED, LEASE_EXPIRED, LEASE_RELEASED = (
    "active",
    "completed",
    "failed",
    "expired",
    "released",
)

_LEASE_COLUMNS = (
    "lease_id, job_id, job_key, worker, state, attempt, created_s, "
    "deadline_s, heartbeats, finished_s"
)


def job_key(job: CampaignJob) -> str:
    """The store's primary key for one job: its full identity.

    Every field of the job participates (episodes/repeats/seeds/kernel
    included), so distinct scenarios never alias.  ``episodes=None``
    (the per-network auto budget) keys as ``auto``.  ``warm_start``
    appends a segment only when set, so every pre-prior key — and the
    stored corpus built under it — stays valid verbatim.
    """
    episodes = "auto" if job.episodes is None else str(job.episodes)
    parts = [
        job.network,
        job.platform,
        job.mode,
        f"seed{job.seed}",
        job.kind,
        f"ep{episodes}",
        f"r{job.repeats}",
        f"k{job.seeds}",
        job.kernel,
    ]
    if job.warm_start != "off":
        parts.append(f"warm-{job.warm_start}")
    return "/".join(parts)


def payload_dict(payload) -> tuple[str, dict]:
    """A campaign payload as ``(payload_kind, JSON-ready dict)``.

    The dict :func:`encode_payload` serializes; a fleet worker ships it
    inside its result body, so the body's one serialization writes the
    same text the store holds.
    """
    from repro.analysis.compare import MethodComparison
    from repro.analysis.speedup import Table2Row

    if isinstance(payload, SearchResult):
        return "search_result", _search_result_dict(payload)
    if isinstance(payload, MultiSeedResult):
        body = {
            "results": [_search_result_dict(r) for r in payload.results],
            "wall_clock_s": payload.wall_clock_s,
            "batched_pricings": payload.batched_pricings,
            "lockstep": payload.lockstep,
        }
        return "multi_seed_result", body
    if isinstance(payload, Table2Row):
        return "table2_row", asdict(payload)
    if isinstance(payload, MethodComparison):
        return "method_comparison", asdict(payload)
    raise ConfigError(f"cannot store payload of type {type(payload).__name__}")


def encode_payload(payload) -> tuple[str, str]:
    """Serialize a campaign payload to ``(payload_kind, json)``.

    Supports every payload ``execute_job`` produces: ``SearchResult``,
    ``MultiSeedResult``, ``Table2Row`` and ``MethodComparison``.
    Floats round-trip bitwise (shortest-repr JSON literals); a
    ``SearchResult``'s ``config`` is reduced to the fields needed to
    re-label the run (the epsilon schedule object is not persisted).
    """
    kind, body = payload_dict(payload)
    return kind, json.dumps(body)


def decode_payload(payload_kind: str, text: str):
    """Inverse of :func:`encode_payload`."""
    return payload_from_dict(payload_kind, json.loads(text))


def payload_from_dict(payload_kind: str, body: dict):
    """Inverse of :func:`payload_dict`: rebuild a payload from its
    parsed JSON (a delivered result body is decoded without another
    serialize/parse hop)."""
    from repro.analysis.compare import MethodComparison
    from repro.analysis.speedup import Table2Row

    if payload_kind == "search_result":
        return _search_result_from(body)
    if payload_kind == "multi_seed_result":
        return MultiSeedResult(
            results=[_search_result_from(r) for r in body["results"]],
            wall_clock_s=body["wall_clock_s"],
            batched_pricings=body["batched_pricings"],
            lockstep=body["lockstep"],
        )
    if payload_kind == "table2_row":
        return Table2Row(**body)
    if payload_kind == "method_comparison":
        return MethodComparison(**body)
    raise ConfigError(f"unknown stored payload kind {payload_kind!r}")


def best_ms_of(payload) -> float | None:
    """The headline latency of a payload (None when it has no single one)."""
    best = getattr(payload, "best_ms", None)
    if best is not None:
        return float(best)
    qsdnn = getattr(payload, "qsdnn_ms", None)
    if qsdnn is not None:
        return float(qsdnn)
    results = getattr(payload, "results", None)
    if results:
        return min(float(r.best_ms) for r in results)
    return None


def _search_result_dict(result: SearchResult) -> dict:
    config = result.config
    return {
        "graph_name": result.graph_name,
        "method": result.method,
        "best_assignments": result.best_assignments,
        "best_ms": result.best_ms,
        "episodes": result.episodes,
        "curve_ms": result.curve_ms,
        "epsilon_trace": result.epsilon_trace,
        "wall_clock_s": result.wall_clock_s,
        "greedy_ms": result.greedy_ms,
        "kernel_backend": result.kernel_backend,
        "seed": config.seed if config is not None else None,
        "warm_start": result.warm_start,
    }


def _search_result_from(body: dict) -> SearchResult:
    seed = body.get("seed")
    config = None
    if seed is not None and body["episodes"] >= 1:
        config = SearchConfig(episodes=body["episodes"], seed=seed)
    return SearchResult(
        graph_name=body["graph_name"],
        method=body["method"],
        best_assignments=dict(body["best_assignments"]),
        best_ms=body["best_ms"],
        episodes=body["episodes"],
        curve_ms=list(body["curve_ms"]),
        epsilon_trace=list(body["epsilon_trace"]),
        wall_clock_s=body["wall_clock_s"],
        config=config,
        greedy_ms=body["greedy_ms"],
        kernel_backend=body["kernel_backend"],
        warm_start=body.get("warm_start", "off"),
    )


@dataclass
class LeaseRecord:
    """One job lease as the lease table tracks it.

    A lease is the unit of the fleet's pull protocol: one worker's
    bounded claim on queued work.  Liveness is heartbeat-extended
    (``deadline_s`` moves forward); a missed deadline expires the
    lease and requeues its jobs.  ``attempt`` counts the jobs' leases
    so far (1-based), bounding crash-requeue loops.

    A *batch* lease (``POST /leases`` with ``max_jobs > 1``) covers
    several jobs under one lease id and one heartbeat; ``job_id`` and
    ``job_key`` then hold the space-joined ids/keys (job ids and keys
    never contain spaces), and :attr:`job_ids`/:attr:`job_keys` give
    the split-out views.
    """

    lease_id: str
    job_id: str
    job_key: str
    worker: str
    state: str = LEASE_ACTIVE
    attempt: int = 1
    created_s: float = 0.0
    deadline_s: float = 0.0
    heartbeats: int = 0
    finished_s: float | None = None

    @property
    def live(self) -> bool:
        """Whether the lease is still active (deadline not considered)."""
        return self.state == LEASE_ACTIVE

    @property
    def job_ids(self) -> list[str]:
        """All job ids under this lease (one element for single leases)."""
        return self.job_id.split(" ")

    @property
    def job_keys(self) -> list[str]:
        """All job keys under this lease, aligned with :attr:`job_ids`."""
        return self.job_key.split(" ")

    def age_s(self, now: float) -> float:
        """Seconds since the lease was granted."""
        return max(0.0, now - self.created_s)

    def to_dict(self) -> dict:
        """JSON-ready view (the wire format of ``GET /workers``).

        ``job_id``/``job_key`` stay the *first* job for compatibility
        with single-lease consumers; ``job_ids`` lists the whole batch
        and ``jobs`` counts it.
        """
        ids = self.job_ids
        return {
            "lease_id": self.lease_id,
            "job_id": ids[0],
            "job_key": self.job_keys[0],
            "worker": self.worker,
            "state": self.state,
            "attempt": self.attempt,
            "created_s": self.created_s,
            "deadline_s": self.deadline_s,
            "heartbeats": self.heartbeats,
            "finished_s": self.finished_s,
            "job_ids": ids,
            "jobs": len(ids),
        }


@dataclass
class StoredCheckpoint:
    """One persisted anytime-search checkpoint, keyed by job identity.

    ``text`` is the canonical JSON of :mod:`repro.core.checkpoint`
    (decode with ``decode_checkpoint``, which rejects foreign formats
    loudly); ``episode``/``best_ms`` are denormalized for cheap
    progress reads — streaming a job's progress never parses the full
    Q-block payload.
    """

    job_key: str
    format: int
    episode: int
    best_ms: float | None
    text: str
    updated_s: float


@dataclass
class StoredResult:
    """One solved scenario as the store returns it."""

    job: CampaignJob
    payload: object
    #: Headline latency (None for payloads without a single best).
    best_ms: float | None = None
    wall_clock_s: float = 0.0
    #: Unix timestamp of the original computation.
    created_s: float = field(default=0.0)


class ResultStore:
    """Sqlite-backed store of solved campaign jobs, keyed by identity.

    Parameters
    ----------
    path:
        Database file (parent directories are created), or
        ``":memory:"`` for a store that lives only as long as this
        object.
    wal:
        Run file-backed stores in ``journal_mode=WAL`` with
        ``synchronous=NORMAL`` — writers don't block readers and
        sqlite fsyncs once per commit instead of once per journal
        page.  Ignored for ``":memory:"``.  A power loss can roll the
        database back to the last WAL checkpoint, but never corrupts
        it; pass ``wal=False`` to keep the default rollback journal
        with full-durability ``synchronous=FULL`` semantics.
    group_commit:
        When > 0, :meth:`put` buffers rows in memory and commits them
        ``group_commit`` at a time (one transaction per flush) instead
        of one transaction per call.  Reads flush first, so buffered
        writes are always visible; :meth:`flush`, :meth:`put_many` and
        :meth:`close` also drain the buffer.  Rows in the buffer are
        lost if the *process* crashes before a flush — the service
        only buffers results it can recompute (jobs requeue on lease
        expiry), so acknowledged-and-lost is bounded by the flush the
        caller controls.

    The connection is shared across threads behind a lock (the service
    touches the store from its event-loop thread and from HTTP handler
    coroutines; the CLI from the main thread).
    """

    def __init__(
        self,
        path: str | Path = ":memory:",
        wal: bool = True,
        group_commit: int = 0,
    ) -> None:
        if group_commit < 0:
            raise ConfigError(f"group_commit must be >= 0, got {group_commit}")
        self.path = str(path)
        self.group_commit = int(group_commit)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        #: Pending group-commit rows, key -> 16-column row (last write
        #: wins, matching INSERT OR REPLACE semantics).
        self._buffer: dict[str, tuple] = {}
        #: Flush statistics: transactions flushed, rows they carried,
        #: and total seconds spent committing (the benchmark and the
        #: ``repro_store_flush_seconds`` histogram read these).
        self.flush_stats = {"flushes": 0, "rows": 0, "total_s": 0.0}
        self.wal = bool(wal) and self.path != ":memory:"
        with self._lock:
            if self.wal:
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(_TABLE_DDL)
            self._conn.execute(_LEASE_DDL)
            self._conn.execute(_LEASE_ACTIVE_INDEX_DDL)
            self._conn.execute(_CHECKPOINT_DDL)
            self._conn.commit()

    # -- writes -------------------------------------------------------------

    _INSERT_SQL = (
        "INSERT OR REPLACE INTO results VALUES "
        "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
    )

    @staticmethod
    def _row(
        job: CampaignJob,
        payload,
        wall_clock_s: float,
        encoded: tuple[str, str] | None = None,
    ) -> tuple[str, tuple]:
        """Encode one solved job as its ``(key, 16-column row)``;
        ``encoded`` is the payload's :func:`encode_payload` when the
        caller already has it."""
        key = job_key(job)
        payload_kind, text = encoded or encode_payload(payload)
        return key, (
            key,
            STORE_SCHEMA_VERSION,
            job.network,
            job.platform,
            job.mode,
            job.seed,
            job.kind,
            job.kernel,
            job.episodes,
            job.repeats,
            job.seeds,
            payload_kind,
            text,
            best_ms_of(payload),
            wall_clock_s,
            time.time(),
        )

    def _flush_locked(self) -> tuple[int, float]:
        """Commit every buffered row (caller holds the lock); returns
        ``(rows, elapsed_s)`` for THIS commit — callers feeding latency
        histograms must use this value, not a delta of the shared
        ``flush_stats`` accumulator (which other threads advance too).
        """
        if not self._buffer:
            return 0, 0.0
        rows = list(self._buffer.values())
        started = time.perf_counter()
        self._conn.executemany(self._INSERT_SQL, rows)
        self._conn.commit()
        elapsed = time.perf_counter() - started
        self._buffer.clear()
        self.flush_stats["flushes"] += 1
        self.flush_stats["rows"] += len(rows)
        self.flush_stats["total_s"] += elapsed
        return len(rows), elapsed

    def flush(self) -> int:
        """Commit buffered group-commit rows; returns how many landed."""
        return self.flush_timed()[0]

    def flush_timed(self) -> tuple[int, float]:
        """Like :meth:`flush`, but returns ``(rows, elapsed_s)`` — the
        commit latency of exactly this call (the service feeds it into
        the flush-latency histogram)."""
        with self._lock:
            return self._flush_locked()

    @property
    def pending(self) -> int:
        """Rows sitting in the group-commit buffer (0 when disabled)."""
        with self._lock:
            return len(self._buffer)

    def put(self, job: CampaignJob, payload, wall_clock_s: float = 0.0) -> str:
        """Insert (or replace) one solved job; returns its key.

        With ``group_commit=0`` (the default) the row commits before
        this returns.  Otherwise it lands in the buffer and commits on
        the next flush — triggered here once the buffer reaches the
        group-commit threshold.
        """
        key, row = self._row(job, payload, wall_clock_s)
        with self._lock:
            if self.group_commit > 0:
                self._buffer[key] = row
                if len(self._buffer) >= self.group_commit:
                    self._flush_locked()
            else:
                started = time.perf_counter()
                self._conn.execute(self._INSERT_SQL, row)
                self._conn.commit()
                self.flush_stats["flushes"] += 1
                self.flush_stats["rows"] += 1
                self.flush_stats["total_s"] += time.perf_counter() - started
        return key

    def put_many(self, items: list[tuple]) -> tuple[list[str], float]:
        """Insert a batch of ``(job, payload, wall_clock_s)`` in ONE
        transaction; returns ``(keys, elapsed_s)`` — the keys in input
        order plus this commit's own latency.

        An item may carry a fourth element, the payload's
        :func:`encode_payload` ``(payload_kind, json)``, which is stored
        as is instead of encoding the payload again.  Any buffered
        group-commit rows ride along in the same commit (one fsync
        covers everything).  Bitwise semantics are identical to repeated
        :meth:`put` calls — same encoder, same row layout.
        """
        encoded = [self._row(*item) for item in items]
        with self._lock:
            for key, row in encoded:
                self._buffer[key] = row
            _, elapsed = self._flush_locked()
        return [key for key, _ in encoded], elapsed

    def delete(self, job: CampaignJob) -> bool:
        """Drop one solved job; returns whether it existed."""
        key = job_key(job)
        with self._lock:
            buffered = self._buffer.pop(key, None) is not None
            cursor = self._conn.execute("DELETE FROM results WHERE key = ?", (key,))
            self._conn.commit()
            return buffered or cursor.rowcount > 0

    # -- reads --------------------------------------------------------------

    def contains(self, job: CampaignJob) -> bool:
        """Whether this exact job is stored (no payload decode)."""
        with self._lock:
            self._flush_locked()
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE key = ? AND schema_version = ?",
                (job_key(job), STORE_SCHEMA_VERSION),
            ).fetchone()
        return row is not None

    def get(self, job: CampaignJob) -> StoredResult | None:
        """The stored result of exactly this job, or None on a miss."""
        with self._lock:
            self._flush_locked()
            row = self._conn.execute(
                "SELECT payload_kind, payload, best_ms, wall_clock_s, created_s "
                "FROM results WHERE key = ? AND schema_version = ?",
                (job_key(job), STORE_SCHEMA_VERSION),
            ).fetchone()
        if row is None:
            return None
        payload_kind, text, best_ms, wall_clock_s, created_s = row
        return StoredResult(
            job=job,
            payload=decode_payload(payload_kind, text),
            best_ms=best_ms,
            wall_clock_s=wall_clock_s,
            created_s=created_s,
        )

    def query(
        self,
        network: str | None = None,
        platform: str | None = None,
        mode: str | None = None,
        kind: str | None = None,
        seed: int | None = None,
    ) -> list[StoredResult]:
        """All stored results matching the given filters (AND semantics).

        Results come back oldest-first; every filter is optional, so
        ``query()`` lists the whole corpus.
        """
        clauses, params = ["schema_version = ?"], [STORE_SCHEMA_VERSION]
        for column, value in (
            ("network", network),
            ("platform", platform),
            ("mode", mode),
            ("kind", kind),
            ("seed", seed),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        sql = (
            "SELECT network, platform, mode, seed, kind, kernel, episodes, "
            "repeats, seeds, payload_kind, payload, best_ms, wall_clock_s, "
            "created_s FROM results WHERE " + " AND ".join(clauses)
            + " ORDER BY created_s"
        )
        with self._lock:
            self._flush_locked()
            rows = self._conn.execute(sql, params).fetchall()
        results = []
        for row in rows:
            job = CampaignJob(
                network=row[0],
                platform=row[1],
                mode=row[2],
                seed=row[3],
                kind=row[4],
                kernel=row[5],
                episodes=row[6],
                repeats=row[7],
                seeds=row[8],
            )
            results.append(
                StoredResult(
                    job=job,
                    payload=decode_payload(row[9], row[10]),
                    best_ms=row[11],
                    wall_clock_s=row[12],
                    created_s=row[13],
                )
            )
        return results

    # -- checkpoints (the anytime-search resume substrate) -------------------

    def put_checkpoint(
        self,
        key: str,
        text: str,
        format: int,
        episode: int,
        best_ms: float | None,
        now: float | None = None,
    ) -> str:
        """Persist (or replace) one job's latest checkpoint; returns key.

        One row per job identity — a newer checkpoint of the same job
        replaces the older one (resume always wants the latest
        boundary).  Commits immediately: a checkpoint's whole point is
        surviving the crash that follows it, so it never rides the
        group-commit buffer.
        """
        now = time.time() if now is None else now
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO checkpoints VALUES (?, ?, ?, ?, ?, ?)",
                (key, int(format), int(episode), best_ms, text, now),
            )
            self._conn.commit()
        return key

    def get_checkpoint(self, key: str) -> StoredCheckpoint | None:
        """The latest persisted checkpoint of this job key, or None."""
        with self._lock:
            row = self._conn.execute(
                "SELECT job_key, format, episode, best_ms, checkpoint, "
                "updated_s FROM checkpoints WHERE job_key = ?",
                (key,),
            ).fetchone()
        if row is None:
            return None
        return StoredCheckpoint(
            job_key=row[0],
            format=row[1],
            episode=row[2],
            best_ms=row[3],
            text=row[4],
            updated_s=row[5],
        )

    def delete_checkpoint(self, key: str) -> bool:
        """Drop one job's checkpoint (completion hygiene); True if it
        existed."""
        with self._lock:
            cursor = self._conn.execute(
                "DELETE FROM checkpoints WHERE job_key = ?", (key,)
            )
            self._conn.commit()
            return cursor.rowcount > 0

    def gc_checkpoints(self, ttl_s: float, now: float | None = None) -> int:
        """Drop checkpoints not updated within ``ttl_s`` seconds.

        Stale rows belong to jobs nobody resubmitted — the reaper calls
        this so an abandoned preemption cannot grow the store without
        bound.  Returns the number of rows collected.
        """
        now = time.time() if now is None else now
        with self._lock:
            cursor = self._conn.execute(
                "DELETE FROM checkpoints WHERE updated_s < ?", (now - ttl_s,)
            )
            self._conn.commit()
            return cursor.rowcount

    def count_checkpoints(self) -> int:
        """Number of persisted checkpoints (tests and ``GET /stats``)."""
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM checkpoints"
            ).fetchone()
        return int(count)

    # -- leases (the fleet's pull protocol; see runtime/service.py) ----------

    def create_lease(
        self,
        lease_id: str,
        job_id: str | list[str],
        job_key: str | list[str],
        worker: str,
        ttl_s: float,
        attempt: int = 1,
        now: float | None = None,
    ) -> LeaseRecord:
        """Grant one lease: ``worker`` owns the job(s) until the deadline.

        ``job_id``/``job_key`` may be lists (a batch lease); they are
        stored space-joined — see :attr:`LeaseRecord.job_ids`.
        """
        now = time.time() if now is None else now
        record = LeaseRecord(
            lease_id=lease_id,
            job_id=" ".join(job_id) if isinstance(job_id, list) else job_id,
            job_key=" ".join(job_key) if isinstance(job_key, list) else job_key,
            worker=worker,
            state=LEASE_ACTIVE,
            attempt=attempt,
            created_s=now,
            deadline_s=now + ttl_s,
        )
        with self._lock:
            self._conn.execute(
                f"INSERT INTO leases ({_LEASE_COLUMNS}) VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    record.lease_id,
                    record.job_id,
                    record.job_key,
                    record.worker,
                    record.state,
                    record.attempt,
                    record.created_s,
                    record.deadline_s,
                    record.heartbeats,
                    record.finished_s,
                ),
            )
            self._conn.commit()
        return record

    def get_lease(self, lease_id: str) -> LeaseRecord | None:
        """One lease by id, or None."""
        with self._lock:
            row = self._conn.execute(
                f"SELECT {_LEASE_COLUMNS} FROM leases WHERE lease_id = ?",
                (lease_id,),
            ).fetchone()
        return LeaseRecord(*row) if row is not None else None

    def heartbeat_lease(
        self, lease_id: str, ttl_s: float, now: float | None = None
    ) -> LeaseRecord | None:
        """Extend an active lease's deadline to ``now + ttl_s``.

        Returns None when the lease is not active.  A lease already past
        its deadline comes back unextended and unwritten (its
        ``deadline_s`` before ``now``): expiring it and requeueing its
        jobs is the caller's, on the one path every expiry takes.
        """
        now = time.time() if now is None else now
        with self._lock:
            row = self._conn.execute(
                "SELECT state, deadline_s FROM leases WHERE lease_id = ?",
                (lease_id,),
            ).fetchone()
            if row is None or row[0] != LEASE_ACTIVE:
                return None
            if row[1] >= now:
                self._conn.execute(
                    "UPDATE leases SET deadline_s = ?, heartbeats = heartbeats + 1 "
                    "WHERE lease_id = ?",
                    (now + ttl_s, lease_id),
                )
                self._conn.commit()
        return self.get_lease(lease_id)

    def finish_lease(
        self, lease_id: str, state: str, now: float | None = None
    ) -> LeaseRecord | None:
        """Move an *active* lease to a terminal state; None otherwise.

        The active-only guard makes result submission race-free: of a
        worker's submission and the reaper's expiry, exactly one wins.
        """
        if state not in (LEASE_COMPLETED, LEASE_FAILED, LEASE_EXPIRED, LEASE_RELEASED):
            raise ConfigError(f"invalid terminal lease state {state!r}")
        now = time.time() if now is None else now
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE leases SET state = ?, finished_s = ? "
                "WHERE lease_id = ? AND state = ?",
                (state, now, lease_id, LEASE_ACTIVE),
            )
            self._conn.commit()
            if cursor.rowcount == 0:
                return None
        return self.get_lease(lease_id)

    def due_leases(self, now: float | None = None) -> list[LeaseRecord]:
        """Every active lease past its deadline; the reaper expires each
        one (and requeues its jobs, bounded by the retry budget)."""
        now = time.time() if now is None else now
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {_LEASE_COLUMNS} FROM leases "
                "WHERE state = ? AND deadline_s < ?",
                (LEASE_ACTIVE, now),
            ).fetchall()
        return [LeaseRecord(*row) for row in rows]

    def active_leases(self) -> list[LeaseRecord]:
        """Every active lease, oldest first."""
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {_LEASE_COLUMNS} FROM leases WHERE state = ? "
                "ORDER BY created_s",
                (LEASE_ACTIVE,),
            ).fetchall()
        return [LeaseRecord(*row) for row in rows]

    def release_active_leases(self, now: float | None = None) -> int:
        """Release every active lease (service start/stop hygiene).

        A service inheriting a persistent store from a crashed
        predecessor must not treat its stale leases as live work;
        a service shutting down releases what its drain did not wait
        out.  Returns the number of leases released.
        """
        now = time.time() if now is None else now
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE leases SET state = ?, finished_s = ? WHERE state = ?",
                (LEASE_RELEASED, now, LEASE_ACTIVE),
            )
            self._conn.commit()
            return cursor.rowcount

    def __len__(self) -> int:
        """Number of stored results (current schema only)."""
        with self._lock:
            self._flush_locked()
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM results WHERE schema_version = ?",
                (STORE_SCHEMA_VERSION,),
            ).fetchone()
        return int(count)

    def close(self) -> None:
        """Flush any buffered rows and close the sqlite connection."""
        with self._lock:
            try:
                self._flush_locked()
            finally:
                self._conn.close()

    def __enter__(self) -> "ResultStore":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: close the connection."""
        self.close()
