"""Fleet worker: pull jobs from a campaign service over HTTP.

``repro work --server URL`` turns any host that can import this repo
into fleet capacity.  The protocol is deliberately worker-*pull* (the
service never dials out, so workers behind NAT just work):

1. **Register** — ``POST /workers`` once at startup; the grant carries
   this worker's id, the lease TTL and the suggested heartbeat
   interval.
2. **Lease** — ``POST /leases`` claims up to ``--lease-batch`` queued
   jobs (default 1) under ONE lease id, deadline and heartbeat,
   highest priority first.  Every poll is a *long-poll*: the service
   holds an empty request for up to ``--poll`` seconds and answers the
   moment a job is queued, so an idle worker adds no latency and sends
   no more than one request per window; 204 means the window passed
   with nothing to do.
3. **Heartbeat** — while the jobs execute (in this process, via
   :func:`~repro.runtime.campaign.execute_job`), the worker's one beat
   thread beats ``POST /leases/{id}/heartbeat`` every TTL/3 seconds,
   carrying the jobs' latest anytime checkpoints.  A 409 tells the
   worker it lost the lease (the service requeued the jobs, or revoked
   the lease to preempt one) and the results must be discarded.
4. **Results** — one ``POST /leases/{id}/results`` delivers every
   encoded outcome of the lease (a one-job lease is a batch of one).
   Each payload rides as :func:`~repro.runtime.store.payload_dict` —
   the dict the result store serializes — so the request body is the
   result's one serialization on this side, and a remotely computed
   result lands in the store bitwise-identical to local execution
   (shortest-repr floats round-trip exactly).  A delivery that fails
   in transit is kept and re-sent before the next lease.

``repro serve --workers N`` runs this same loop: the service forks N
processes that lease from it over loopback, so local and remote jobs
share one preemption, progress and crash-recovery path.

Worker-side job failures are *reported*, not retried: the job raised,
so it would raise anywhere (searches are deterministic).  Crashes and
network partitions are what the lease machinery handles — the service
requeues after a missed heartbeat, bounded by ``max_lease_retries``.

One loop (:meth:`FleetWorker.run`) drives every lease → execute →
deliver step, and a service error or transport failure anywhere in
that step counts against ``MAX_CONSECUTIVE_ERRORS``.  The worker
exits cleanly when the service becomes unreachable or starts draining
— a fleet host is cattle, not a pet.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core import checkpoint
from repro.errors import (
    ConfigError,
    LeaseExpiredError,
    PreemptedError,
    ServiceError,
)
from repro.runtime.campaign import CampaignJob, execute_job
from repro.runtime.client import ServiceClient
from repro.runtime.store import payload_dict

#: Consecutive failed service round-trips before the worker gives up
#: (covers restarts and brief partitions without spinning forever).
MAX_CONSECUTIVE_ERRORS = 5


@dataclass
class WorkerConfig:
    """Configuration of one ``repro work`` process."""

    #: Campaign-service base URL (``http://host:port``).
    server: str
    #: Human-readable worker name (shows up in ``GET /workers``,
    #: lease ownership and per-worker metrics).
    name: str | None = None
    #: Local LUT cache tier for executed jobs (same flag as serve).
    cache_dir: str | None = None
    #: Remote LUT shard server(s) chained behind the local tier.
    cache_remote: str | None = None
    #: Long-poll window: seconds the service may hold an empty lease
    #: request before answering 204 (a queued job answers it at once).
    #: Also the pause after a failed service round-trip.
    poll_s: float = 0.5
    #: Stop after this many executed jobs (0 = run until the service
    #: goes away).
    max_jobs: int = 0
    #: Jobs to claim per lease (the service clamps to its
    #: ``lease_batch_limit``).
    lease_batch: int = 1

    def __post_init__(self) -> None:
        if not self.server:
            raise ConfigError("worker needs a --server URL")
        if self.poll_s <= 0:
            raise ConfigError(f"poll_s must be > 0, got {self.poll_s}")
        if self.max_jobs < 0:
            raise ConfigError(f"max_jobs must be >= 0, got {self.max_jobs}")
        if self.lease_batch < 1:
            raise ConfigError(f"lease_batch must be >= 1, got {self.lease_batch}")


@dataclass
class WorkerStats:
    """What one worker run did (the ``repro work`` exit summary)."""

    completed: int = 0
    failed: int = 0
    lost_leases: int = 0
    #: Executed outcomes still undelivered when the loop gave up.
    undelivered: int = 0
    polls: int = 0
    started_s: float = field(default_factory=time.time)

    def to_dict(self) -> dict:
        return {
            "completed": self.completed,
            "failed": self.failed,
            "lost_leases": self.lost_leases,
            "undelivered": self.undelivered,
            "polls": self.polls,
            "uptime_s": time.time() - self.started_s,
        }


class _Heartbeat:
    """The heartbeat of one lease, beaten by its worker's beat thread
    (:class:`_BeatThread`) every ``interval_s`` from the grant until
    stopped or lost.

    Transient transport errors are tolerated (the TTL absorbs a few
    missed beats); a 409 sets :attr:`lost` and ends the beating — the
    service has already requeued the job (or revoked the lease to
    preempt it).

    Beats double as the fleet's checkpoint carrier: the executing
    thread :meth:`offer`\\ s each job's latest checkpoint and the next
    beat encodes and ships every fresh one in the heartbeat body, where
    the service persists them.  Only the newest snapshot per job is
    kept (an older one is strictly worse, and is never encoded), and
    snapshots that miss a beat to a transport error are re-queued for
    the next one unless a newer offer superseded them.
    """

    def __init__(self, client: ServiceClient, lease_id: str, interval_s: float) -> None:
        self.client = client
        self.lease_id = lease_id
        self.interval_s = interval_s
        self.lost = threading.Event()
        self.stopped = False
        #: ``time.monotonic()`` at which the next beat is due.
        self.due_s = time.monotonic() + interval_s
        self._lock = threading.Lock()
        self._checkpoints: dict[str, dict] = {}

    def offer(self, job_id: str, ckpt: dict) -> None:
        """Stage a job's latest checkpoint for the next beat.  Each
        capture is a fresh dict the search never mutates, so the beat
        may encode it while the search runs on."""
        with self._lock:
            self._checkpoints[job_id] = ckpt

    def beat(self) -> bool:
        """Send one heartbeat carrying every fresh checkpoint, encoded
        now; False once the lease is lost."""
        with self._lock:
            fresh, self._checkpoints = self._checkpoints, {}
        texts = {job: checkpoint.encode_checkpoint(c) for job, c in fresh.items()}
        try:
            self.client.heartbeat(self.lease_id, checkpoints=texts or None)
        except LeaseExpiredError:
            self.lost.set()
            return False
        except (ServiceError, OSError):
            with self._lock:
                for job_id, ckpt in fresh.items():
                    self._checkpoints.setdefault(job_id, ckpt)
        return True

    def stop(self) -> None:
        """Stop beating, without waiting for the beat thread: a beat
        already in flight lands like any other, and a 409 it meets only
        marks a lease whose results the service decides on anyway."""
        self.stopped = True


class _BeatThread(threading.Thread):
    """The one daemon thread that beats a worker's current lease.

    :meth:`follow` hands it each new lease's :class:`_Heartbeat`; it
    sleeps until that lease's next beat is due, sends it, and schedules
    the one after ``interval_s`` later.  The worker starts it lazily in
    the process that runs the loop (a thread does not survive ``fork``)
    and closes it when the loop returns, so a process that ran a worker
    is not left with a thread that keeps
    :func:`~repro.core.multi_seed.shard_count` from forking its sweeps.
    """

    def __init__(self, name: str) -> None:
        super().__init__(daemon=True, name=name)
        self._cond = threading.Condition()
        self._current: _Heartbeat | None = None
        self._closed = False

    def follow(self, beat: _Heartbeat) -> None:
        """Beat ``beat`` from now on instead of the previous lease."""
        with self._cond:
            self._current = beat
            self._cond.notify()

    def close(self) -> None:
        """Ask the thread to exit, without waiting for it: a beat in
        flight still lands."""
        with self._cond:
            self._closed = True
            self._cond.notify()

    def run(self) -> None:
        with self._cond:
            while not self._closed:
                beat = self._current
                if beat is None or beat.stopped:
                    self._current = None
                    self._cond.wait()
                    continue
                wait_s = beat.due_s - time.monotonic()
                if wait_s > 0:
                    self._cond.wait(wait_s)
                    continue
                self._cond.release()
                try:
                    alive = beat.beat()
                finally:
                    self._cond.acquire()
                beat.due_s = time.monotonic() + beat.interval_s
                if not alive and self._current is beat:
                    self._current = None


def encode_outcome(result) -> dict:
    """A :class:`CampaignResult` as the result-submission wire body.

    The payload is :func:`~repro.runtime.store.payload_dict`, the dict
    the store serializes: the request body's serialization writes the
    store's canonical JSON text, and the service's parse of it preserves
    every float bitwise (Python's shortest-repr round-trip guarantee),
    which is what keeps remote execution indistinguishable from local.
    """
    kind, body = payload_dict(result.payload)
    return {
        "payload_kind": kind,
        "payload": body,
        "wall_clock_s": result.wall_clock_s,
        "lut_from_cache": result.lut_from_cache,
    }


class FleetWorker:
    """One worker process: register, then lease/execute/deliver.

    ``log`` receives one line per lifecycle event (``repro work``
    prints them; the default discards them).
    """

    def __init__(
        self,
        config: WorkerConfig,
        client: ServiceClient | None = None,
        log: Callable[[str], None] | None = None,
    ) -> None:
        self.config = config
        # A parked lease poll holds the connection for up to poll_s.
        self.client = client or ServiceClient(
            config.server, timeout=60.0 + config.poll_s
        )
        #: A client the worker made is closed when a run ends; an
        #: injected one stays the caller's.
        self._owns_client = client is None
        self.log = log or (lambda line: None)
        self.stats = WorkerStats()
        self.worker_id: str | None = None
        self.heartbeat_s: float = 10.0
        #: ``(lease_id, outcomes)`` executed but not yet delivered.
        self._pending: tuple[str, list[dict]] | None = None
        self._beat_thread: _BeatThread | None = None

    def register(self) -> dict:
        """Announce this worker; remembers the id and heartbeat hint."""
        grant = self.client.register_worker(self.config.name)
        self.worker_id = grant["worker"]["id"]
        self.heartbeat_s = float(
            grant.get("heartbeat_s", grant.get("lease_ttl_s", 30.0) / 3.0)
        )
        self.log(
            f"worker {self.worker_id} registered at {self.config.server} "
            f"(heartbeat {self.heartbeat_s:.3g}s)"
        )
        return grant

    def _jobs_done(self) -> int:
        return self.stats.completed + self.stats.failed

    def _batch_size(self) -> int:
        """Jobs to request on the next lease (respects ``max_jobs``)."""
        size = self.config.lease_batch
        if self.config.max_jobs:
            size = min(size, max(1, self.config.max_jobs - self._jobs_done()))
        return size

    def run_one(self) -> bool:
        """Re-send an undelivered batch, or else lease, execute and
        deliver one batch; False when the queue stayed empty for the
        whole long-poll window.  The beat thread it starts ends with
        it; :meth:`run` keeps one across its steps."""
        try:
            return self._step()
        finally:
            self._end_run()

    def _step(self) -> bool:
        """:meth:`run_one`, leaving the beat thread running."""
        assert self.worker_id is not None, "register() first"
        if self._pending is not None:
            lease_id = self._pending[0]
            outcome = "re-delivered" if self._deliver() else "lost"
            self.log(f"worker {self.worker_id} {outcome} {lease_id}")
            return True
        grant = self.client.lease(
            self.worker_id, max_jobs=self._batch_size(), wait_s=self.config.poll_s
        )
        self.stats.polls += 1
        if grant is None:
            return False
        lease_id = grant["lease"]["lease_id"]
        jobs = grant["jobs"]
        suffix = f", {len(jobs)} jobs" if len(jobs) > 1 else ""
        self.log(
            f"worker {self.worker_id} leased {lease_id} "
            f"({jobs[0]['key']}, attempt {grant['lease']['attempt']}{suffix})"
        )
        if self._process(grant):
            self.log(f"worker {self.worker_id} finished {lease_id}")
        else:
            self.log(f"worker {self.worker_id} lost {lease_id} (expired; job requeued)")
        return True

    @staticmethod
    def _make_on_checkpoint(beat: _Heartbeat, job_id: str):
        """Per-job anytime callback: stage the snapshot for the next
        heartbeat, and stop the search the moment the lease is lost —
        the service revoked it (preemption) or expired it, so further
        episodes are wasted work."""

        def on_checkpoint(ckpt: dict):
            beat.offer(job_id, ckpt)
            return not beat.lost.is_set()

        return on_checkpoint

    def _heartbeat(self, lease_id: str) -> _Heartbeat:
        """Start beating a fresh lease on this worker's beat thread,
        starting the thread when there is none alive (the first lease
        of a run, or a fork since)."""
        beat = _Heartbeat(self.client, lease_id, self.heartbeat_s)
        thread = self._beat_thread
        # is_alive() first: a thread inherited through fork is dead, and
        # its lock may have been held at the fork.
        if thread is None or not thread.is_alive():
            thread = self._beat_thread = _BeatThread(f"heartbeat-{self.worker_id}")
            thread.start()
        thread.follow(beat)
        return beat

    def _end_run(self) -> None:
        """Close the beat thread at the end of a run, then the client
        the worker made, once the thread has sent its last beat."""
        thread, self._beat_thread = self._beat_thread, None
        if thread is not None and thread.is_alive():
            thread.close()
            if self._owns_client:
                thread.join()
        if self._owns_client:
            self.client.close()

    def _process(self, grant: dict) -> bool:
        """Execute a grant's jobs and deliver their outcomes; False when
        the lease was lost before delivery landed."""
        lease_id = grant["lease"]["lease_id"]
        checkpoint_every = int(grant.get("checkpoint_every") or 0) or None
        resume_map = grant.get("resume") or {}
        warm_map = grant.get("warm") or {}
        beat = self._heartbeat(lease_id)
        outcomes: list[dict] = []
        try:
            for entry in grant["jobs"]:
                if beat.lost.is_set():
                    # The lease (and with it every job of the batch)
                    # is gone — executing the rest is wasted work.
                    break
                job = CampaignJob(**entry["job"])
                try:
                    result = execute_job(
                        job,
                        self.config.cache_dir,
                        self.config.cache_remote,
                        checkpoint_every=checkpoint_every,
                        resume_text=resume_map.get(entry["id"]),
                        warm_text=warm_map.get(entry["id"]),
                        on_checkpoint=(
                            self._make_on_checkpoint(beat, entry["id"])
                            if checkpoint_every
                            else None
                        ),
                    )
                except PreemptedError:
                    # The lease vanished mid-search; the final snapshot
                    # was already offered (though its beat may not have
                    # landed — the service keeps the last one that did).
                    # The loop's lost-lease check ends the batch.
                    continue
                except Exception as error:  # job failure — report, don't die
                    outcome = {"error": f"{type(error).__name__}: {error}"}
                else:
                    outcome = encode_outcome(result)
                outcome["job_id"] = entry["id"]
                outcomes.append(outcome)
        finally:
            beat.stop()
        if beat.lost.is_set():
            # The service expired the lease mid-run (e.g. a long GC or
            # paused VM): the jobs are already requeued, these results
            # must not race the retries.
            self.stats.lost_leases += 1
            return False
        self._pending = (lease_id, outcomes)
        return self._deliver()

    def _deliver(self) -> bool:
        """Deliver the pending batch; False when the lease was lost (a
        409: its jobs were requeued).  A service or transport error
        propagates and keeps the batch pending for the next step to
        re-send; the service answers a repeat delivery idempotently."""
        lease_id, outcomes = self._pending
        try:
            self.client.submit_results(lease_id, outcomes)
        except LeaseExpiredError:
            self._pending = None
            self.stats.lost_leases += 1
            return False
        self._pending = None
        for outcome in outcomes:
            if "error" in outcome:
                self.stats.failed += 1
            else:
                self.stats.completed += 1
        return True

    def run(self) -> WorkerStats:
        """The worker main loop (after :meth:`register`): lease, execute
        and deliver until the service goes away or ``max_jobs`` is
        reached; returns the stats.

        An empty poll loops straight back: the long-poll already
        waited.  A service error or transport failure anywhere in one
        lease → execute → deliver step (a restart, or a draining
        service refusing new leases) is retried after ``poll_s``; the
        fifth in a row ends the loop, counting a still-pending batch
        in ``undelivered``.
        """
        errors = 0
        try:
            while True:
                try:
                    self._step()
                except (ServiceError, OSError):
                    errors += 1
                    if errors >= MAX_CONSECUTIVE_ERRORS:
                        if self._pending is not None:
                            self.stats.undelivered += len(self._pending[1])
                            self._pending = None
                        self.log("service unreachable; exiting")
                        return self.stats
                    time.sleep(self.config.poll_s)
                    continue
                errors = 0
                if self.config.max_jobs and self._jobs_done() >= self.config.max_jobs:
                    return self.stats
        finally:
            self._end_run()


def run_worker(config: WorkerConfig) -> int:
    """Blocking entry point behind ``repro work``.

    Prints a line per lifecycle event (grep-able by the fleet smoke)
    and a JSON stats summary on exit; Ctrl-C exits cleanly.
    """
    worker = FleetWorker(config, log=functools.partial(print, flush=True))
    try:
        worker.register()
    except (ServiceError, OSError) as error:
        print(f"cannot register with {config.server}: {error}", flush=True)
        return 1
    try:
        worker.run()
    except KeyboardInterrupt:
        pass
    print(f"worker stats: {json.dumps(worker.stats.to_dict())}", flush=True)
    return 0
