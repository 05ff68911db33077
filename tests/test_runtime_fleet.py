"""The worker fleet: leases, heartbeats, quotas, rate limits, drains.

Two layers of coverage.  Deterministic lease mechanics run against an
*unstarted* ``CampaignService`` (workers=0, no event loop): submit,
lease, expire and finish are all plain synchronous calls, so expiry
and retry-budget edges are driven with explicit ``now`` values instead
of sleeps.  Protocol/admission behaviour (409s, 429 + Retry-After,
observability bypass, shutdown drain) runs over real HTTP against a
live service, including a full ``FleetWorker`` round trip asserting
remote execution is bitwise-identical to local.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import threading
import time
from dataclasses import asdict

import pytest

from repro.core.config import ServiceConfig
from repro.errors import (
    ConfigError,
    LeaseError,
    LeaseExpiredError,
    PreemptedError,
    QueueFullError,
    QuotaExceededError,
    ServiceError,
)
from repro.runtime.campaign import CampaignJob, execute_job
from repro.runtime.client import ServiceClient
from repro.runtime.metrics import parse_samples
from repro.runtime.service import (
    CampaignService,
    JobRecord,
    TokenBucket,
    WorkerInfo,
)
from repro.runtime.store import (
    LEASE_ACTIVE,
    LEASE_COMPLETED,
    LEASE_EXPIRED,
    LEASE_FAILED,
    LEASE_RELEASED,
    ResultStore,
    job_key,
)
from repro.runtime.worker import (
    FleetWorker,
    WorkerConfig,
    _Heartbeat,
    encode_outcome,
    run_worker,
)
from tests.helpers import stop_loop_thread

EPISODES = 150

FAR_FUTURE = 1e12  # a `now` safely past any real lease deadline


def _toy_job(**overrides) -> CampaignJob:
    fields = dict(
        network="fig1_toy", mode="gpgpu", episodes=EPISODES, kind="search"
    )
    fields.update(overrides)
    return CampaignJob(**fields)


def _fleet_service(**overrides) -> CampaignService:
    """An unstarted workers=0 service (pure-sync queue mechanics)."""
    overrides.setdefault("workers", 0)
    overrides.setdefault("port", 0)
    return CampaignService(ServiceConfig(**overrides))


def _leased(**config):
    """An unstarted service with one toy job leased to worker "host"."""
    service = _fleet_service(**config)
    info = service.register_worker("host")
    record = service.submit(_toy_job())
    service.lease_batch(info.id)
    return service, info, record


class TestTokenBucket:
    def test_burst_then_empty(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        now = bucket.updated
        assert bucket.take(now) == 0.0
        assert bucket.take(now) == 0.0
        wait = bucket.take(now)
        assert wait == pytest.approx(1.0)

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=2.0, burst=1)
        now = bucket.updated
        assert bucket.take(now) == 0.0
        assert bucket.take(now) > 0.0
        # Half a second at 2 tokens/s refills the single token.
        assert bucket.take(now + 0.5) == 0.0

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3)
        now = bucket.updated
        for _ in range(3):
            assert bucket.take(now + 60.0) == 0.0
        assert bucket.take(now + 60.0) > 0.0

    def test_wait_hint_shrinks_as_tokens_accrue(self):
        bucket = TokenBucket(rate=1.0, burst=1)
        now = bucket.updated
        bucket.take(now)
        first = bucket.take(now)
        later = bucket.take(now + 0.25)
        assert 0 < later < first


class TestWorkerRegistration:
    def test_ids_are_unique_even_with_shared_names(self):
        service = _fleet_service()
        a = service.register_worker("host")
        b = service.register_worker("host")
        assert a.id != b.id
        assert a.name == b.name == "host"
        assert set(service.workers_info) == {a.id, b.id}

    def test_invalid_name_rejected(self):
        service = _fleet_service()
        for bad in ("", "x" * 65, "has space", "semi;colon", "a\nb"):
            with pytest.raises(ConfigError):
                service.register_worker(bad)

    def test_anonymous_worker_named_after_id(self):
        info = _fleet_service().register_worker()
        assert info.name == info.id

    def test_unknown_worker_cannot_lease(self):
        service = _fleet_service()
        with pytest.raises(LeaseError):
            service.lease_batch("w99-ghost")


class TestLeaseLifecycle:
    def test_grant_moves_job_to_running_under_a_lease(self):
        service = _fleet_service()
        info = service.register_worker("host")
        record = service.submit(_toy_job())
        (granted,) = service.lease_batch(info.id)
        assert granted is record
        assert record.state == "running"
        assert record.attempts == 1
        assert record.worker == info.id
        lease = service.store.get_lease(record.lease_id)
        assert lease.state == LEASE_ACTIVE
        assert lease.worker == info.id
        assert lease.attempt == 1

    def test_empty_queue_leases_none(self):
        service = _fleet_service()
        info = service.register_worker("host")
        assert service.lease_batch(info.id) == []

    def test_cancelled_job_is_skipped(self):
        service = _fleet_service()
        info = service.register_worker("host")
        record = service.submit(_toy_job())
        assert service.cancel(record.id)
        assert service.lease_batch(info.id) == []

    def test_heartbeat_extends_deadline(self):
        service = _fleet_service()
        info = service.register_worker("host")
        record = service.submit(_toy_job())
        service.lease_batch(info.id)
        before = service.store.get_lease(record.lease_id).deadline_s
        time.sleep(0.01)
        after = service.heartbeat(record.lease_id)
        assert after["deadline_s"] > before

    def test_heartbeat_after_expiry_raises_conflict(self):
        """A beat past the deadline, before the reaper's next sweep,
        answers 409 and requeues the job there and then.  The stalled
        worker's late delivery never lands; the requeued attempt's
        does."""
        service, info, record = _leased(lease_ttl_s=0.2)
        late = record.lease_id
        time.sleep(0.3)
        with pytest.raises(LeaseExpiredError):
            service.heartbeat(late)
        assert record.state == "queued" and record.lease_id is None
        assert service.store.get_lease(late).state == LEASE_EXPIRED
        assert info.expired == 1
        assert service.store.active_leases() == []
        outcome = encode_outcome(execute_job(record.job))
        delivery = {"results": [dict(outcome, job_id=record.id)]}
        with pytest.raises(LeaseExpiredError):
            service.finish_remote_batch(late, delivery)
        assert service.store.get(record.job) is None
        assert service.lease_batch(info.id) == [record]
        assert record.attempts == 2
        status, _ = service.finish_remote_batch(record.lease_id, delivery)
        assert status == 200 and record.state == "done"

    def test_late_heartbeat_past_the_budget_fails_the_job(self):
        service, _, record = _leased(lease_ttl_s=0.2, max_lease_retries=1)
        time.sleep(0.3)
        with pytest.raises(LeaseExpiredError):
            service.heartbeat(record.lease_id)
        assert record.state == "failed"
        assert "retry budget exhausted" in record.error

    def test_heartbeat_unknown_lease_raises(self):
        with pytest.raises(LeaseExpiredError):
            _fleet_service().heartbeat("lease-404")


class TestResultSubmission:
    """One-job leases deliver through ``finish_remote_batch`` too: a
    lease of one is a batch of one."""

    @staticmethod
    def _delivery(record, outcome):
        return {"results": [dict(outcome, job_id=record.id)]}

    def test_result_lands_bitwise_equal_to_local(self):
        service, _, record = _leased()
        local = execute_job(record.job)
        # The worker's wire body: encode, then the HTTP JSON hop.
        body = json.loads(json.dumps(self._delivery(record, encode_outcome(local))))
        status, payload = service.finish_remote_batch(record.lease_id, body)
        assert status == 200 and payload["accepted"]
        assert record.state == "done"
        assert record.result.payload.best_ms == local.payload.best_ms
        stored = service.store.get(record.job)
        assert stored is not None
        lease = service.store.get_lease(payload["lease"]["lease_id"])
        assert lease.state == LEASE_COMPLETED

    def test_duplicate_submission_is_idempotent(self):
        """Satellite case: a second POST of the same result answers
        200 with ``accepted: false`` instead of erroring."""
        service, _, record = _leased()
        outcome = encode_outcome(execute_job(record.job))
        body = json.loads(json.dumps(self._delivery(record, outcome)))
        lease_id = record.lease_id
        first = service.finish_remote_batch(lease_id, body)
        second = service.finish_remote_batch(lease_id, body)
        assert first[0] == second[0] == 200
        assert first[1]["accepted"] is True
        assert second[1]["accepted"] is False
        assert second[1]["duplicate"] is True
        assert record.state == "done"

    def test_result_on_expired_lease_conflicts(self):
        service, _, record = _leased()
        lease_id = record.lease_id
        expired = service.store.due_leases(now=FAR_FUTURE)
        assert [lease.lease_id for lease in expired] == [lease_id]
        for lease in expired:
            service._expire(lease)
        with pytest.raises(LeaseExpiredError):
            service.finish_remote_batch(
                lease_id, self._delivery(record, {"error": "too late"})
            )

    def test_result_on_unknown_lease_conflicts(self):
        with pytest.raises(LeaseError):
            _fleet_service().finish_remote_batch(
                "lease-404", {"results": [{"job_id": "job-1", "error": "x"}]}
            )

    def test_worker_reported_error_is_terminal(self):
        """A job that *raised* on the worker fails without retry —
        searches are deterministic, it would raise anywhere."""
        service, info, record = _leased()
        status, payload = service.finish_remote_batch(
            record.lease_id,
            self._delivery(record, {"error": "ValueError: bad LUT"}),
        )
        assert status == 200 and payload["accepted"]
        assert record.state == "failed"
        assert "bad LUT" in record.error
        assert info.failed == 1
        # The queue stays empty: no requeue happened.
        assert service.lease_batch(info.id) == []

    def test_malformed_submission_is_a_client_error(self):
        """A body that is not an object is a client error; a malformed
        entry is rejected and its job requeued as undelivered."""
        service, _, record = _leased()
        status, payload = service.finish_remote_batch(
            record.lease_id, self._delivery(record, {"payload_kind": "nope"})
        )
        assert status == 200
        assert payload["results"][0]["status"] == "rejected"
        assert payload["requeued"] == [record.id]
        assert record.state == "queued"
        with pytest.raises(ConfigError):
            service.finish_remote_batch(record.lease_id, "not an object")

    def test_single_result_route_is_gone(self):
        """``POST /leases/{id}/results`` is the only result route."""
        with LiveFleet() as live:
            grant = live.client.register_worker("host")
            record = live.client.submit(_toy_body())[0]
            lease_id = live.client.lease(grant["worker"]["id"])["lease"]["lease_id"]
            status, _, body = live.raw(
                "POST", f"/leases/{lease_id}/result", {"error": "x"}
            )
            assert status == 404
            assert "no route" in body["error"]
            assert live.client.job(record["id"])["state"] == "running"


class TestExpiryAndRetryBudget:
    def _expire_current_lease(self, service):
        expired = service.store.due_leases(now=FAR_FUTURE)
        assert len(expired) == 1
        service._expire(expired[0])

    def test_expired_lease_requeues_at_same_priority(self):
        service = _fleet_service()
        info = service.register_worker("host")
        record = service.submit(_toy_job(), priority=7)
        service.lease_batch(info.id)
        self._expire_current_lease(service)
        assert record.state == "queued"
        assert record.worker is None and record.lease_id is None
        assert info.expired == 1
        (regrant,) = service.lease_batch(info.id)
        assert regrant is record
        assert record.attempts == 2
        assert service.store.get_lease(record.lease_id).attempt == 2
        assert record.priority == 7

    def test_retry_budget_exhaustion_fails_terminally(self):
        """Satellite case: past ``max_lease_retries`` lease grants the
        job goes terminal ``failed`` instead of crash-looping."""
        service = _fleet_service(max_lease_retries=2)
        info = service.register_worker("host")
        record = service.submit(_toy_job())
        for attempt in (1, 2):
            assert service.lease_batch(info.id) == [record]
            assert record.attempts == attempt
            self._expire_current_lease(service)
        assert record.state == "failed"
        assert "retry budget exhausted" in record.error
        assert "2 attempt(s)" in record.error
        assert record.done_event.is_set()
        assert service.lease_batch(info.id) == []
        metrics = parse_samples(service.metrics.render())
        assert sum(metrics["repro_jobs_requeued_total"].values()) == 1.0
        assert sum(metrics["repro_leases_expired_total"].values()) == 2.0

    def test_expiry_after_completion_is_a_noop(self):
        service = _fleet_service()
        info = service.register_worker("host")
        record = service.submit(_toy_job())
        service.lease_batch(info.id)
        outcome = encode_outcome(execute_job(record.job))
        outcome["job_id"] = record.id
        body = json.loads(json.dumps({"results": [outcome]}))
        service.finish_remote_batch(record.lease_id, body)
        # A stale reaper pass over the (already completed) lease must
        # not touch the done record.
        stale = service.store.get_lease(record.lease_id)
        service._expire(stale)
        assert record.state == "done"
        assert service.store.get_lease(record.lease_id).state == LEASE_COMPLETED

    def test_expiry_during_shutdown_cancels(self):
        service = _fleet_service()
        info = service.register_worker("host")
        record = service.submit(_toy_job())
        service.lease_batch(info.id)
        service._closing = True
        self._expire_current_lease(service)
        assert record.state == "cancelled"
        assert "shutdown" in record.error


class TestStoreLeasePersistence:
    def test_finish_guard_is_active_only(self):
        """Of a result submission and the reaper's expiry, exactly one
        wins — the terminal state never flips."""
        store = ResultStore(":memory:")
        store.create_lease("l1", "job-1", "key", "w1", ttl_s=30.0)
        assert store.finish_lease("l1", LEASE_COMPLETED) is not None
        assert store.finish_lease("l1", LEASE_EXPIRED) is None
        assert store.get_lease("l1").state == LEASE_COMPLETED

    def test_release_active_leases_is_start_stop_hygiene(self):
        store = ResultStore(":memory:")
        store.create_lease("l1", "job-1", "key", "w1", ttl_s=30.0)
        store.create_lease("l2", "job-2", "key2", "w2", ttl_s=30.0)
        store.finish_lease("l1", LEASE_COMPLETED)
        assert store.release_active_leases() == 1
        assert store.active_leases() == []
        assert store.get_lease("l1").state == LEASE_COMPLETED

    def test_due_leases_lists_only_overdue_and_writes_nothing(self):
        store = ResultStore(":memory:")
        store.create_lease("l1", "job-1", "key", "w1", ttl_s=30.0, now=0.0)
        store.create_lease("l2", "job-2", "key2", "w1", ttl_s=90.0, now=0.0)
        due = store.due_leases(now=60.0)
        assert [lease.lease_id for lease in due] == ["l1"]
        assert store.get_lease("l1").state == LEASE_ACTIVE
        assert store.get_lease("l2").state == LEASE_ACTIVE

    def test_late_heartbeat_is_reported_not_written(self):
        store = ResultStore(":memory:")
        store.create_lease("l1", "job-1", "key", "w1", ttl_s=30.0, now=0.0)
        late = store.heartbeat_lease("l1", 30.0, now=60.0)
        assert late.state == LEASE_ACTIVE and late.deadline_s == 30.0
        assert store.get_lease("l1") == late


class LiveFleet:
    """A live service on a background loop thread (fleet configs)."""

    def __init__(self, **overrides):
        overrides.setdefault("port", 0)
        overrides.setdefault("workers", 0)
        # A test that leaves a lease outstanding would otherwise spend
        # the default 30 s drain window in shutdown; drain tests set
        # their own.
        overrides.setdefault("drain_timeout_s", 0.5)
        self.config = ServiceConfig(**overrides)
        self.service = CampaignService(self.config)
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._started = threading.Event()

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.service.start())
        self._started.set()
        self.loop.run_forever()

    def __enter__(self) -> "LiveFleet":
        self._thread.start()
        assert self._started.wait(10), "service failed to start"
        self.client = ServiceClient(
            f"http://127.0.0.1:{self.service.port}", timeout=60
        )
        return self

    def wait_closed(self, timeout: float = 60.0) -> None:
        asyncio.run_coroutine_threadsafe(
            self.service.wait_closed(), self.loop
        ).result(timeout)

    def raw(self, method: str, path: str, body=None, headers=None):
        """One request returning the raw response (status + headers)."""
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.service.port, timeout=30
        )
        try:
            payload = json.dumps(body).encode() if body is not None else None
            sent = {"Content-Type": "application/json"} if payload else {}
            sent.update(headers or {})
            conn.request(method, path, body=payload, headers=sent)
            response = conn.getresponse()
            raw = response.read()
            return (
                response.status,
                dict(response.getheaders()),
                json.loads(raw) if raw else {},
            )
        finally:
            conn.close()

    def __exit__(self, *exc) -> None:
        try:
            asyncio.run_coroutine_threadsafe(
                self.service.shutdown(), self.loop
            ).result(60)
        finally:
            stop_loop_thread(self.loop, self._thread)
            self.client.close()


def _toy_body(**overrides):
    body = {"network": "fig1_toy", "mode": "gpgpu", "episodes": EPISODES}
    body.update(overrides)
    return body


class TestQuotaOverHttp:
    def test_quota_answers_429_with_retry_after(self):
        """Satellite case: per-tenant admission quota -> 429 whose
        Retry-After header is a positive integer."""
        with LiveFleet(quota_jobs=1) as live:
            live.client.submit(_toy_body())
            status, headers, body = live.raw(
                "POST", "/jobs", _toy_body(episodes=EPISODES + 1)
            )
            assert status == 429
            assert "quota" in body["error"]
            assert int(headers["Retry-After"]) >= 1

    def test_quota_is_per_tenant(self):
        with LiveFleet(quota_jobs=1) as live:
            live.client.submit(_toy_body())
            with pytest.raises(QueueFullError):
                live.client.submit(_toy_body(episodes=EPISODES + 1))
            # Another tenant's quota is untouched.
            other = live.client.submit(
                _toy_body(episodes=EPISODES + 1), tenant="team-b"
            )
            assert other[0]["state"] == "queued"

    def test_invalid_tenant_rejected(self):
        with LiveFleet() as live:
            status, _, body = live.raw(
                "POST", "/jobs", _toy_body(),
                headers={"X-Tenant": "bad tenant!"},
            )
            assert status == 400
            assert "tenant" in body["error"]

    def test_rate_limit_answers_429_after_burst(self):
        with LiveFleet(rate_limit_per_s=0.25, rate_burst=1) as live:
            live.client.submit(_toy_body())
            status, headers, body = live.raw(
                "POST", "/jobs", _toy_body(episodes=EPISODES + 1)
            )
            assert status == 429
            assert "exceeded" in body["error"]
            # One token at 0.25/s is up to 4 s away.
            assert 1 <= int(headers["Retry-After"]) <= 4
            # Rejected submissions are visible in metrics.
            samples = parse_samples(live.client.metrics())
            rejected = samples["repro_jobs_rejected_total"]
            assert rejected[(("reason", "rate_limit"),)] >= 1.0

    def test_quota_exceeded_is_a_queue_full_subclass(self):
        # Clients catching QueueFullError keep working unchanged.
        assert issubclass(QuotaExceededError, QueueFullError)
        error = QuotaExceededError("over", retry_after_s=2.5)
        assert error.retry_after_s == 2.5


class TestObservabilityBypass:
    def test_healthz_and_metrics_answer_when_queue_is_full(self):
        """Satellite case: a saturated service must stay scrapable."""
        with LiveFleet(queue_limit=1) as live:
            live.client.submit(_toy_body())
            status, _, _ = live.raw(
                "POST", "/jobs", _toy_body(episodes=EPISODES + 1)
            )
            assert status == 429
            health = live.client.health()
            assert health["status"] == "ok"
            assert health["queue_depth"] == 1
            samples = parse_samples(live.client.metrics())
            assert samples["repro_queue_depth"][()] == 1.0
            assert samples["repro_queue_limit"][()] == 1.0

    def test_metrics_content_type_is_prometheus(self):
        with LiveFleet() as live:
            conn = http.client.HTTPConnection(
                "127.0.0.1", live.service.port, timeout=30
            )
            try:
                conn.request("GET", "/metrics")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                assert response.getheader("Content-Type") == (
                    "text/plain; version=0.0.4; charset=utf-8"
                )
            finally:
                conn.close()

    def test_scrape_carries_service_info_and_worker_gauges(self):
        with LiveFleet() as live:
            live.client.register_worker("scraped")
            samples = parse_samples(live.client.metrics())
            info = samples["repro_service_info"]
            assert list(info.values()) == [1.0]
            assert samples["repro_workers_registered"][()] == 1.0


class TestFleetWorkerOverHttp:
    def test_fleet_execution_is_bitwise_equal_to_local(self):
        """The whole protocol end to end, in process: register ->
        lease -> heartbeat thread -> result, against a live server."""
        with LiveFleet() as live:
            record = live.client.submit(_toy_body())[0]
            worker = FleetWorker(
                WorkerConfig(server=f"http://127.0.0.1:{live.service.port}")
            )
            worker.register()
            assert worker.run_one() is True
            assert worker.run_one() is False  # queue drained
            final = live.client.wait(record["id"], timeout=60)
        assert final["state"] == "done"
        assert final["attempts"] == 1
        assert worker.stats.completed == 1
        local = execute_job(_toy_job())
        assert final["best_ms"] == local.payload.best_ms  # bitwise

    def test_lease_age_gauge_tracks_active_leases(self):
        with LiveFleet() as live:
            grant = live.client.register_worker("ager")
            live.client.submit(_toy_body())
            lease = live.client.lease(grant["worker"]["id"])["lease"]
            samples = parse_samples(live.client.metrics())
            ages = samples["repro_lease_age_seconds"]
            (key,) = ages
            assert ("lease", lease["lease_id"]) in key
            assert ages[key] >= 0.0

    def test_worker_listing_shows_lease_ownership(self):
        with LiveFleet() as live:
            grant = live.client.register_worker("lister")
            worker_id = grant["worker"]["id"]
            record = live.client.submit(_toy_body())[0]
            live.client.lease(worker_id)
            listing = live.client.workers()
            names = {info["name"] for info in listing["workers"]}
            assert "lister" in names
            (lease,) = listing["leases"]
            assert lease["worker"] == worker_id
            assert lease["job_id"] == record["id"]


class TestShutdownDrain:
    def test_drain_waits_for_an_outstanding_lease(self):
        """Satellite case: shutdown keeps serving lease traffic until
        outstanding fleet results land (within drain_timeout_s)."""
        with LiveFleet(drain_timeout_s=30.0) as live:
            grant = live.client.register_worker("drainer")
            record = live.client.submit(_toy_body())[0]
            granted = live.client.lease(grant["worker"]["id"])
            lease_id = granted["lease"]["lease_id"]
            outcome = encode_outcome(execute_job(_toy_job()))
            live.client.shutdown()
            # The server is draining but still answers the result POST
            # on a brand-new connection.
            outcome["job_id"] = record["id"]
            accepted = live.client.submit_results(lease_id, [outcome])
            assert accepted["accepted"] is True
            live.wait_closed()
            # The store is closed with the service; the in-memory
            # record carries the drained result (accepted above means
            # the persistence path ran before close).
            final = live.service.records[record["id"]]
            assert final.state == "done"
            assert final.result is not None

    def test_drain_timeout_releases_the_lease_and_cancels(self):
        with LiveFleet(drain_timeout_s=0.2) as live:
            grant = live.client.register_worker("too-slow")
            record = live.client.submit(_toy_body())[0]
            live.client.lease(grant["worker"]["id"])
            live.client.shutdown()
            live.wait_closed()
            final = live.service.records[record["id"]]
            assert final.state == "cancelled"
            assert final.error == "lease released at shutdown"

    def test_draining_service_stops_granting_leases(self):
        service = _fleet_service()
        info = service.register_worker("latecomer")
        service.submit(_toy_job())
        service._closing = True
        assert service.lease_batch(info.id) == []
        with pytest.raises(ServiceError):
            service.submit(_toy_job(episodes=EPISODES + 1))


class TestWorkerConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            WorkerConfig(server="")
        with pytest.raises(ConfigError):
            WorkerConfig(server="http://x", poll_s=0)
        with pytest.raises(ConfigError):
            WorkerConfig(server="http://x", max_jobs=-1)

    def test_encode_outcome_round_trips_floats_bitwise(self):
        result = execute_job(_toy_job())
        outcome = encode_outcome(result)
        # The wire hop a real submission makes.
        hopped = json.loads(json.dumps(outcome))
        assert hopped["payload"]["best_ms"] == result.payload.best_ms
        assert hopped["payload_kind"] == "search_result"
        assert hopped["wall_clock_s"] == result.wall_clock_s


class TestLeaseHttpConflicts:
    def test_http_heartbeat_404_lease_is_409(self):
        with LiveFleet() as live:
            status, _, body = live.raw(
                "POST", "/leases/lease-404/heartbeat"
            )
            assert status == 409
            assert "lease-404" in body["error"]

    def test_http_lease_requires_registration(self):
        with LiveFleet() as live:
            status, _, body = live.raw(
                "POST", "/leases", {"worker": "w9-ghost"}
            )
            assert status == 409
            assert "POST /workers" in body["error"]

    def test_http_lease_empty_queue_is_204(self):
        with LiveFleet() as live:
            grant = live.client.register_worker("poller")
            assert live.client.lease(grant["worker"]["id"]) is None


def _timed(call) -> tuple[object, float]:
    started = time.monotonic()
    return call(), time.monotonic() - started


class TestLongPollLeasing:
    """``POST /leases {"wait_s": T}`` holds an empty poll until a job
    is queued, T passes, or shutdown begins."""

    def _park(self, live, worker_id: str, wait_s: float):
        """Send one parked poll on a thread; returns (thread, outcome)."""
        outcome = {}

        def poll():
            outcome["response"], outcome["elapsed_s"] = _timed(
                lambda: live.raw(
                    "POST", "/leases", {"worker": worker_id, "wait_s": wait_s}
                )
            )

        thread = threading.Thread(target=poll, daemon=True)
        thread.start()
        return thread, outcome

    def _parked(self, live) -> None:
        deadline = time.monotonic() + 10
        while not live.service._lease_waiters:
            assert time.monotonic() < deadline, "poll never parked"
            time.sleep(0.005)

    def test_parked_poll_is_granted_soon_after_a_submit(self):
        with LiveFleet() as live:
            worker_id = live.client.register_worker("parker")["worker"]["id"]
            thread, outcome = self._park(live, worker_id, 5.0)
            self._parked(live)
            record = live.client.submit(_toy_body())[0]
            submitted = time.monotonic()
            thread.join(10)
            granted_after_s = time.monotonic() - submitted
            assert not thread.is_alive()
            status, _, grant = outcome["response"]
            assert status == 200
            assert [job["id"] for job in grant["jobs"]] == [record["id"]]
            assert granted_after_s < 1.0  # well before the 5 s wait ends
            assert outcome["elapsed_s"] < 4.0
            assert live.service._lease_waiters == set()

    def test_empty_poll_answers_204_after_the_wait(self):
        with LiveFleet() as live:
            worker_id = live.client.register_worker("idler")["worker"]["id"]
            (status, _, _), elapsed = _timed(
                lambda: live.raw(
                    "POST", "/leases", {"worker": worker_id, "wait_s": 0.4}
                )
            )
            assert status == 204
            assert 0.35 <= elapsed < 3.0
            assert live.service._lease_waiters == set()

    def test_shutdown_answers_a_parked_poll_at_once(self):
        with LiveFleet() as live:
            worker_id = live.client.register_worker("sleeper")["worker"]["id"]
            thread, outcome = self._park(live, worker_id, 30.0)
            self._parked(live)
            live.client.shutdown()
            thread.join(10)
            assert not thread.is_alive()
            status, _, body = outcome["response"]
            assert status == 503  # draining: back off, do not re-poll
            assert "shutting down" in body["error"]
            assert outcome["elapsed_s"] < 10.0

    @pytest.mark.parametrize("wait_s", ["soon", -1, -0.5, True, None, [1]])
    def test_bad_wait_s_is_400(self, wait_s):
        with LiveFleet() as live:
            worker_id = live.client.register_worker("typo")["worker"]["id"]
            status, _, body = live.raw(
                "POST", "/leases", {"worker": worker_id, "wait_s": wait_s}
            )
            assert status == 400
            assert "wait_s" in body["error"]
            assert live.service._lease_waiters == set()

    def test_fleet_worker_long_polls_with_its_poll_window(self):
        with LiveFleet() as live:
            worker = FleetWorker(
                WorkerConfig(
                    server=f"http://127.0.0.1:{live.service.port}", poll_s=0.3
                )
            )
            worker.register()
            worked, elapsed = _timed(worker.run_one)
            assert worked is False
            assert elapsed >= 0.25  # held by the service, not slept
            assert worker.stats.polls == 1


class _ExitedProcess:
    """A local worker process stand-in that has already exited."""

    def is_alive(self) -> bool:
        return False

    def join(self, timeout=None) -> None:
        pass

    def close(self) -> None:
        pass


def _socket_inodes(pid: int) -> set[str]:
    """``socket:[inode]`` links among a process's open descriptors."""
    links = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            link = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue
        if link.startswith("socket:"):
            links.add(link)
    return links


def _server_side_sockets(service) -> set[str]:
    """The listening socket and every accepted client connection."""
    socks = list(service._server.sockets) + [
        writer.get_extra_info("socket") for writer in service._connections
    ]
    return {f"socket:[{os.fstat(sock.fileno()).st_ino}]" for sock in socks}


class TestLocalWorkers:
    """``workers=N``: N forked fleet workers the service owns."""

    def test_exited_worker_is_expired_requeued_and_replaced(self, monkeypatch):
        service = _fleet_service()
        local = service.register_worker("local-0", local=True)
        service._local[local.id] = (0, _ExitedProcess())
        record = service.submit(_toy_job())
        (leased,) = service.lease_batch(local.id)
        lease_id = leased.lease_id
        spawned = []
        monkeypatch.setattr(service, "_spawn_local_worker", spawned.append)
        service._reap_local_workers()
        assert service._local == {}
        assert spawned == [0]  # the slot is refilled
        assert service.store.get_lease(lease_id).state == LEASE_EXPIRED
        assert record.state == "queued" and record.attempts == 1
        assert local.expired == 1

    def test_no_replacement_once_shutting_down(self, monkeypatch):
        service = _fleet_service()
        local = service.register_worker("local-0", local=True)
        service._local[local.id] = (0, _ExitedProcess())
        spawned = []
        monkeypatch.setattr(service, "_spawn_local_worker", spawned.append)
        service._closing = True
        service._reap_local_workers()
        assert spawned == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_forked_worker_holds_no_server_socket(self):
        """A local worker (the first, and a replacement forked while a
        client is connected) closes its copies of the listening socket
        and of every accepted connection."""
        with LiveFleet(workers=1, lease_check_s=0.05) as live:

            def leaked(pid: int) -> set[str]:
                deadline = time.monotonic() + 10
                while True:
                    shared = _socket_inodes(pid) & _server_side_sockets(live.service)
                    if not shared or time.monotonic() > deadline:
                        return shared
                    time.sleep(0.01)

            (first,) = live.service._local
            first_pid = live.service._local[first][1].pid
            assert leaked(first_pid) == set()
            live.client.health()  # keeps one connection open on the service
            os.kill(first_pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while first in live.service._local or not live.service._local:
                assert time.monotonic() < deadline, "no replacement forked"
                time.sleep(0.01)
            (second,) = live.service._local
            assert second != first
            assert live.service.workers_info[second].name == "local-0"
            assert leaked(live.service._local[second][1].pid) == set()

    def test_local_worker_does_not_spin_while_the_service_drains(self):
        with LiveFleet(workers=1, drain_timeout_s=1.0) as live:
            (worker_id,) = live.service._local
            pid = live.service._local[worker_id][1].pid
            # An outstanding lease the drain waits out.
            live.service.store.create_lease("lease-x", "job-x", "key-x", "w-x", 30.0)
            polls = []
            lease_batch = live.service.lease_batch

            def counted(*args, **kwargs):
                polls.append(args[0])
                return lease_batch(*args, **kwargs)

            live.service.lease_batch = counted
            started = time.monotonic()
            live.client.shutdown()
            live.wait_closed()
            assert time.monotonic() - started >= 0.9  # the drain ran
            # One answered park plus a poll per backoff window, not a spin.
            assert 1 <= len(polls) <= 10, len(polls)
            assert live.service._local == {}
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestJobsRunningGauge:
    def test_gauge_equals_a_scan_of_the_records(self):
        service = _fleet_service()
        info = service.register_worker("host")

        def check() -> float:
            gauge = parse_samples(service.metrics.render())["repro_jobs_running"][()]
            scan = sum(1 for r in service.records.values() if r.state == "running")
            assert gauge == scan
            return gauge

        a, b, c = (service.submit(_toy_job(seed=seed)) for seed in range(3))
        assert check() == 0
        service.lease_batch(info.id, 2)
        assert check() == 2
        assert service.cancel(c.id)
        assert check() == 2
        for lease in service.store.due_leases(now=FAR_FUTURE):
            service._expire(lease)
        assert a.state == b.state == "queued"
        assert check() == 0
        (leased,) = service.lease_batch(info.id)
        assert check() == 1
        entry = json.loads(json.dumps(encode_outcome(execute_job(leased.job))))
        entry["job_id"] = leased.id
        service.finish_remote_batch(leased.lease_id, {"results": [entry]})
        assert leased.state == "done"
        assert check() == 0


class TestBatchLease:
    """Batched leasing: one lease id covering N jobs (sync mechanics)."""

    def _batched(self, n=3, **overrides):
        service = _fleet_service(**overrides)
        info = service.register_worker("host")
        records = [
            service.submit(_toy_job(episodes=EPISODES + i)) for i in range(n)
        ]
        granted = service.lease_batch(info.id, n)
        return service, info, records, granted

    def _outcome(self, record):
        entry = json.loads(json.dumps(encode_outcome(execute_job(record.job))))
        entry["job_id"] = record.id
        return entry

    def test_batch_grant_shares_one_lease(self):
        service, _, records, granted = self._batched()
        assert granted == records
        assert len({r.lease_id for r in records}) == 1
        lease = service.store.get_lease(records[0].lease_id)
        assert lease.job_ids == [r.id for r in records]
        assert lease.job_keys == [job_key(r.job) for r in records]
        for record in records:
            assert record.state == "running"
            assert record.attempts == 1

    def test_lease_to_dict_stays_single_job_compatible(self):
        service, _, records, _ = self._batched()
        view = service.store.get_lease(records[0].lease_id).to_dict()
        # Single-lease consumers keep reading a plain job_id (the
        # first job of the batch); batch consumers get the full list.
        assert view["job_id"] == records[0].id
        assert view["job_ids"] == [r.id for r in records]
        assert view["jobs"] == len(records)

    def test_batch_clamps_to_queue_depth(self):
        service, info, records, granted = self._batched(n=2)
        assert len(granted) == 2
        assert service.lease_batch(info.id, 5) == []

    def test_single_job_batch_is_wire_identical_to_legacy(self):
        service = _fleet_service()
        info = service.register_worker("host")
        record = service.submit(_toy_job())
        (granted,) = service.lease_batch(info.id, 1)
        assert granted is record
        lease = service.store.get_lease(record.lease_id)
        assert lease.job_id == record.id  # plain id, no space joining
        assert lease.to_dict()["job_ids"] == [record.id]

    def test_batch_expiry_requeues_every_job_exactly_once(self):
        """ISSUE edge: a crashed worker holding a multi-job batch —
        every job requeued exactly once, then completes bitwise."""
        service, info, records, _ = self._batched()
        expired = service.store.due_leases(now=FAR_FUTURE)
        assert len(expired) == 1  # one lease covered the whole batch
        service._expire(expired[0])
        for record in records:
            assert record.state == "queued"
            assert record.worker is None and record.lease_id is None
            assert record.attempts == 1
        metrics = parse_samples(service.metrics.render())
        assert sum(metrics["repro_jobs_requeued_total"].values()) == 3.0
        assert sum(metrics["repro_leases_expired_total"].values()) == 1.0
        regrant = service.lease_batch(info.id, len(records))
        assert regrant == records
        assert all(r.attempts == 2 for r in records)
        locals_ = {r.id: execute_job(r.job) for r in records}
        status, payload = service.finish_remote_batch(
            records[0].lease_id,
            {"results": [self._outcome(r) for r in records]},
        )
        assert status == 200 and payload["accepted"]
        assert payload["requeued"] == []
        assert [s["status"] for s in payload["results"]] == ["done"] * 3
        for record in records:
            assert record.state == "done"
            assert (
                record.result.payload.best_ms
                == locals_[record.id].payload.best_ms
            )  # bitwise, attempt 2 or not
            assert service.store.get(record.job) is not None
        lease = service.store.get_lease(records[0].lease_id)
        assert lease.state == LEASE_COMPLETED

    def test_mixed_failures_do_not_poison_siblings(self):
        """ISSUE edge: one result batch carrying a success, a
        worker-reported failure and a malformed entry."""
        service, info, records, _ = self._batched()
        good, failed, malformed = records
        local = execute_job(good.job)
        entries = [
            self._outcome(good),
            {"job_id": failed.id, "error": "ValueError: bad LUT"},
            {"job_id": malformed.id, "payload_kind": "nope"},
        ]
        status, payload = service.finish_remote_batch(
            good.lease_id, {"results": entries}
        )
        assert status == 200 and payload["accepted"]
        by_id = {s["job_id"]: s["status"] for s in payload["results"]}
        assert by_id == {
            good.id: "done",
            failed.id: "failed",
            malformed.id: "rejected",
        }
        assert good.state == "done"
        assert good.result.payload.best_ms == local.payload.best_ms
        assert failed.state == "failed" and "bad LUT" in failed.error
        # The malformed entry's job is requeued, not failed.
        assert payload["requeued"] == [malformed.id]
        assert malformed.state == "queued" and malformed.error is None
        assert info.completed == 1 and info.failed == 1
        lease = service.store.get_lease(good.lease_id)
        assert lease.state == LEASE_RELEASED

    def test_partial_delivery_requeues_missing_jobs(self):
        service, info, records, _ = self._batched()
        delivered, *missing = records
        status, payload = service.finish_remote_batch(
            delivered.lease_id, {"results": [self._outcome(delivered)]}
        )
        assert status == 200
        assert payload["requeued"] == [r.id for r in missing]
        assert delivered.state == "done"
        for record in missing:
            assert record.state == "queued"
        # The survivors are leasable again, exactly once more.
        regrant = service.lease_batch(info.id, 5)
        assert regrant == missing
        assert all(r.attempts == 2 for r in missing)

    def test_all_failed_batch_marks_lease_failed(self):
        service, _, records, _ = self._batched(n=2)
        entries = [{"job_id": r.id, "error": "RuntimeError: x"} for r in records]
        _, payload = service.finish_remote_batch(
            records[0].lease_id, {"results": entries}
        )
        assert all(r.state == "failed" for r in records)
        assert payload["lease"]["state"] == LEASE_FAILED

    def test_unknown_and_duplicate_entries_are_reported(self):
        service, _, records, _ = self._batched(n=2)
        entries = [
            {"job_id": "job-999", "error": "x"},
            self._outcome(records[0]),
            {"job_id": records[0].id, "error": "again"},
            self._outcome(records[1]),
        ]
        _, payload = service.finish_remote_batch(
            records[0].lease_id, {"results": entries}
        )
        statuses = {
            (s["job_id"], s["status"]) for s in payload["results"]
        }
        assert ("job-999", "unknown_job") in statuses
        assert (records[0].id, "duplicate_entry") in statuses
        assert (records[0].id, "done") in statuses
        assert (records[1].id, "done") in statuses
        assert records[0].state == records[1].state == "done"

    def test_entry_without_job_id_rejects_whole_request(self):
        service, _, records, _ = self._batched(n=2)
        with pytest.raises(ConfigError):
            service.finish_remote_batch(
                records[0].lease_id, {"results": [{"error": "anonymous"}]}
            )
        with pytest.raises(ConfigError):
            service.finish_remote_batch(records[0].lease_id, {"results": "no"})

    def test_duplicate_batch_delivery_is_idempotent(self):
        service, _, records, _ = self._batched(n=2)
        body = {"results": [self._outcome(r) for r in records]}
        first = service.finish_remote_batch(records[0].lease_id, body)
        second = service.finish_remote_batch(records[0].lease_id, body)
        assert first[1]["accepted"] is True
        assert second[1]["accepted"] is False
        assert second[1]["duplicate"] is True

    def test_batch_after_expiry_conflicts(self):
        service, _, records, _ = self._batched(n=2)
        lease_id = records[0].lease_id
        for lease in service.store.due_leases(now=FAR_FUTURE):
            service._expire(lease)
        with pytest.raises(LeaseExpiredError):
            service.finish_remote_batch(
                lease_id, {"results": [self._outcome(records[0])]}
            )

    def test_lease_batch_size_histogram_observes_grants(self):
        service, _, _, _ = self._batched()
        metrics = parse_samples(service.metrics.render())
        assert metrics["repro_lease_batch_jobs_sum"][()] == 3.0
        assert metrics["repro_lease_batch_jobs_count"][()] == 1.0


class TestWorkerBatchSizing:
    def test_lease_batch_validated(self):
        with pytest.raises(ConfigError):
            WorkerConfig(server="http://x", lease_batch=0)

    def test_batch_size_respects_remaining_max_jobs(self):
        worker = FleetWorker(
            WorkerConfig(server="http://x", lease_batch=8, max_jobs=5)
        )
        assert worker._batch_size() == 5
        worker.stats.completed = 3
        assert worker._batch_size() == 2
        worker.stats.failed = 2
        assert worker._batch_size() == 1  # never asks for zero

    def test_unbounded_worker_asks_for_the_full_batch(self):
        worker = FleetWorker(WorkerConfig(server="http://x", lease_batch=8))
        assert worker._batch_size() == 8


class TestBatchOverHttp:
    def test_worker_lease_batch_end_to_end_bitwise(self):
        """Two jobs under ONE lease, delivered in ONE result POST,
        both bitwise-equal to local execution."""
        with LiveFleet() as live:
            first = live.client.submit(_toy_body())[0]
            second = live.client.submit(_toy_body(episodes=EPISODES + 1))[0]
            worker = FleetWorker(
                WorkerConfig(
                    server=f"http://127.0.0.1:{live.service.port}",
                    lease_batch=4,
                )
            )
            worker.register()
            assert worker.run_one() is True
            assert worker.stats.completed == 2
            finals = [
                live.client.wait(record["id"], timeout=60)
                for record in (first, second)
            ]
        assert {f["state"] for f in finals} == {"done"}
        assert finals[0]["lease_id"] == finals[1]["lease_id"]
        for final in finals:
            local = execute_job(CampaignJob(**final["job"]))
            assert final["best_ms"] == local.payload.best_ms  # bitwise

    def test_http_grant_carries_jobs_array(self):
        with LiveFleet() as live:
            grant = live.client.register_worker("batcher")
            live.client.submit(_toy_body())
            live.client.submit(_toy_body(episodes=EPISODES + 1))
            status, _, body = live.raw(
                "POST",
                "/leases",
                {"worker": grant["worker"]["id"], "max_jobs": 8},
            )
            assert status == 200
            assert len(body["jobs"]) == 2
            assert "job" not in body  # the jobs array is the only job list
            assert body["lease"]["job_ids"] == [
                job["id"] for job in body["jobs"]
            ]

    def test_http_invalid_max_jobs_rejected(self):
        with LiveFleet() as live:
            grant = live.client.register_worker("fussy")
            worker_id = grant["worker"]["id"]
            for bad in (0, -1, "many", True, 1.5):
                status, _, body = live.raw(
                    "POST", "/leases", {"worker": worker_id, "max_jobs": bad}
                )
                assert status == 400, bad
                assert "max_jobs" in body["error"]

    def test_http_batch_limit_clamps_grant(self):
        with LiveFleet(lease_batch_limit=2) as live:
            grant = live.client.register_worker("clamped")
            for offset in range(3):
                live.client.submit(_toy_body(episodes=EPISODES + offset))
            granted = live.client.lease(grant["worker"]["id"], max_jobs=64)
            assert len(granted["jobs"]) == 2

    def test_batch_results_body_over_one_mib_accepted(self):
        """Regression: the flat 1 MiB body cap rejected full result
        batches (400), silently discarding every executed result; the
        results route's allowance now scales with the batch limit."""
        with LiveFleet() as live:
            records = [
                live.client.submit(_toy_body(episodes=EPISODES + n))[0]
                for n in range(2)
            ]
            grant = live.client.register_worker("bulky")
            granted = live.client.lease(grant["worker"]["id"], max_jobs=2)
            outcomes = [
                {"job_id": record["id"], "error": "x" * 700_000}
                for record in records
            ]
            assert len(json.dumps({"results": outcomes})) > 1 << 20
            status, _, body = live.raw(
                "POST",
                f"/leases/{granted['lease']['lease_id']}/results",
                {"results": outcomes},
            )
            assert status == 200
            assert body["accepted"] is True
            for record in records:
                assert live.client.job(record["id"])["state"] == "failed"

    def test_oversized_body_still_rejected_off_the_results_route(self):
        """The flat 1 MiB cap still guards every other route; only the
        declared length is sent — the server 400s before the body, so
        actually sending one would race its connection close."""
        import socket

        with LiveFleet() as live:
            with socket.create_connection(
                ("127.0.0.1", live.service.port), timeout=30
            ) as sock:
                sock.sendall(
                    b"POST /jobs HTTP/1.1\r\n"
                    b"Content-Length: 1048577\r\n\r\n"
                )
                response = sock.recv(65536)
        assert b"400" in response.split(b"\r\n", 1)[0]
        assert b"exceeds" in response

    def test_body_limit_scales_only_for_batch_results(self):
        service = _fleet_service(lease_batch_limit=16)
        assert (
            service._body_limit("POST", "/leases/abc/results")
            == 16 * (1 << 20)
        )
        assert service._body_limit("POST", "/jobs") == 1 << 20


class _DeliveryFailsClient:
    """A ``ServiceClient`` stand-in for a service that grants one lease
    and is gone before its results land (a restart, or a graceful
    shutdown that outlasts ``drain_timeout_s``)."""

    def __init__(self, url, *args, **kwargs):
        self.leases = 0

    def register_worker(self, name=None):
        return {"worker": {"id": "w1"}, "lease_ttl_s": 30.0, "heartbeat_s": 10.0}

    def lease(self, worker_id, max_jobs=1, wait_s=0.0):
        self.leases += 1
        if self.leases > 1:
            raise ConnectionRefusedError("service gone")
        job = _toy_job(episodes=20)
        entry = {"id": "job-1", "job": asdict(job), "key": job_key(job)}
        return {"lease": {"lease_id": "lease-1", "attempt": 1}, "jobs": [entry]}

    def heartbeat(self, lease_id, checkpoints=None):
        return {}

    def submit_results(self, lease_id, outcomes):
        raise ConnectionRefusedError("service gone")


class _FlakyDeliveryClient(_DeliveryFailsClient):
    """Grants one two-job lease and refuses every later one.  The
    first delivery fails in transit; the re-send lands (or raises
    ``then``)."""

    def __init__(self, url, *args, then=None, **kwargs):
        super().__init__(url)
        self.then = then
        self.deliveries = []

    def lease(self, worker_id, max_jobs=1, wait_s=0.0):
        self.leases += 1
        if self.leases > 1:
            raise ConnectionRefusedError("service gone")
        jobs = [_toy_job(episodes=20, seeds=seed) for seed in (1, 2)]
        entries = [
            {"id": f"job-{i}", "job": asdict(job), "key": job_key(job)}
            for i, job in enumerate(jobs)
        ]
        return {"lease": {"lease_id": "lease-1", "attempt": 1}, "jobs": entries}

    def submit_results(self, lease_id, outcomes):
        self.deliveries.append((lease_id, outcomes))
        if len(self.deliveries) == 1:
            raise ConnectionResetError("connection reset by peer")
        if self.then is not None:
            raise self.then
        return {"results": [{"job_id": o["job_id"]} for o in outcomes]}


class TestWorkerLoop:
    def test_failed_delivery_ends_repro_work_with_stats(self, monkeypatch, capsys):
        """Regression: a delivery that hit a vanished service escaped
        ``repro work``'s error handling as an uncaught
        ``ConnectionRefusedError`` and no stats line was printed."""
        monkeypatch.setattr("repro.runtime.worker.ServiceClient", _DeliveryFailsClient)
        code = run_worker(WorkerConfig(server="http://127.0.0.1:9", poll_s=0.01))
        out = capsys.readouterr().out
        assert code == 0
        assert "worker w1 leased lease-1" in out
        assert "worker w1 finished" not in out
        assert "service unreachable; exiting" in out
        stats_line = out.splitlines()[-1]
        assert stats_line.startswith("worker stats: ")
        stats = json.loads(stats_line[len("worker stats: ") :])
        assert stats["completed"] == stats["failed"] == 0
        assert stats["undelivered"] == 1
        assert stats["polls"] == 1

    def test_failed_delivery_is_resent_before_the_next_lease(self):
        """A batch whose delivery failed in transit is kept and re-sent:
        its jobs count once, and the worker never leases them again."""
        client = _FlakyDeliveryClient(None)
        worker = FleetWorker(
            WorkerConfig(server="http://stub", poll_s=0.01, lease_batch=2, max_jobs=2),
            client=client,
        )
        worker.register()
        stats = worker.run()
        assert client.leases == 1
        assert [lease for lease, _ in client.deliveries] == ["lease-1", "lease-1"]
        assert client.deliveries[0][1] == client.deliveries[1][1]
        assert [o["job_id"] for o in client.deliveries[1][1]] == ["job-0", "job-1"]
        assert stats.completed == 2
        assert stats.failed == stats.lost_leases == stats.undelivered == 0

    def test_resent_delivery_to_an_expired_lease_counts_as_lost(self):
        client = _FlakyDeliveryClient(None, then=LeaseExpiredError("lease expired"))
        config = WorkerConfig(server="http://stub", poll_s=0.01, lease_batch=2)
        worker = FleetWorker(config, client=client)
        worker.register()
        with pytest.raises(ConnectionResetError):
            worker.run_one()
        assert worker.run_one() is True  # the re-send, answered 409
        assert worker.stats.lost_leases == 1
        assert worker.stats.completed == worker.stats.undelivered == 0
        with pytest.raises(ConnectionRefusedError):
            worker.run_one()  # the next step leases again
        assert client.leases == 2


class _BeatClient:
    """Records every heartbeat; raises the queued errors first."""

    def __init__(self, *errors):
        self.errors = list(errors)
        self.beats = []

    def heartbeat(self, lease_id, checkpoints=None):
        if self.errors:
            raise self.errors.pop(0)
        self.beats.append(checkpoints)
        return {}


@pytest.fixture(scope="module")
def toy_lut():
    from repro.runtime.campaign import load_or_profile_lut

    return load_or_profile_lut(_toy_job())[0]


class TestCheckpointCarriage:
    """Captures are staged as dicts and encoded only by the beat that
    ships them."""

    def _capture(self, lut, on_checkpoint, seed=0):
        from repro.core.config import SearchConfig
        from repro.core.search import QSDNNSearch

        config = SearchConfig(episodes=200, seed=seed)
        QSDNNSearch(lut, config).run(checkpoint_every=20, on_checkpoint=on_checkpoint)

    def _counting_encoder(self, monkeypatch):
        from repro.core import checkpoint

        calls = []
        original = checkpoint.encode_checkpoint

        def counting(ckpt):
            calls.append(ckpt["episode"])
            return original(ckpt)

        monkeypatch.setattr(checkpoint, "encode_checkpoint", counting)
        return calls

    def test_offers_without_a_beat_encode_nothing(self, monkeypatch, toy_lut):
        encoded = self._counting_encoder(monkeypatch)
        beat = _Heartbeat(_BeatClient(), "lease-1", 3600.0)
        for job in ("job-a", "job-b"):
            self._capture(toy_lut, FleetWorker._make_on_checkpoint(beat, job))
        assert encoded == []

    def test_a_beat_ships_the_newest_capture_per_job(self, monkeypatch, toy_lut):
        from repro.core.checkpoint import encode_checkpoint

        client = _BeatClient()
        beat = _Heartbeat(client, "lease-1", 3600.0)
        newest = {}
        for seed, job in enumerate(("job-a", "job-b")):
            stage = FleetWorker._make_on_checkpoint(beat, job)

            def on_checkpoint(ckpt, job=job, stage=stage):
                # Encoded at capture time: what shipping must reproduce.
                newest[job] = (ckpt["episode"], encode_checkpoint(ckpt))
                return stage(ckpt)

            self._capture(toy_lut, on_checkpoint, seed=seed)
        encoded = self._counting_encoder(monkeypatch)
        assert beat.beat() is True
        assert client.beats == [{job: text for job, (_, text) in newest.items()}]
        assert sorted(encoded) == sorted(ep for ep, _ in newest.values()) == [180, 180]
        assert beat.beat() is True  # nothing fresh: a bare beat
        assert client.beats[-1] is None

    def test_a_failed_beat_keeps_captures_unless_superseded(self):
        class Racing(_BeatClient):
            def heartbeat(self, lease_id, checkpoints=None):
                if self.errors:  # a newer capture lands mid-beat
                    beat.offer("job-b", {"episode": 40})
                return super().heartbeat(lease_id, checkpoints)

        client = Racing(OSError("connection reset"))
        beat = _Heartbeat(client, "lease-1", 3600.0)
        beat.offer("job-a", {"episode": 20})
        beat.offer("job-b", {"episode": 20})
        assert beat.beat() is True  # transport error: the beat is retried
        assert beat.beat() is True
        assert client.beats == [
            {"job-a": '{"episode":20}', "job-b": '{"episode":40}'}
        ]

    def test_concurrent_offers_and_flaky_beats_keep_the_newest(self):
        """Stress: eight jobs offer from their own threads while beats
        run and every other beat fails in transit.  Per job,
        shipped captures only move forward and the last one shipped is
        the last offered: a capture re-queued by a failed beat never
        overwrites a newer offer that landed meanwhile."""
        import sys

        class Flaky(_BeatClient):
            calls = 0

            def heartbeat(self, lease_id, checkpoints=None):
                self.calls += 1
                time.sleep(0.0002)  # a round trip: offers land meanwhile
                if self.calls % 2:
                    raise OSError("connection reset")
                if checkpoints:
                    self.beats.append(checkpoints)
                return {}

        client = Flaky()
        beat = _Heartbeat(client, "lease-1", 3600.0)
        jobs, offers = [f"job-{i}" for i in range(8)], 200
        done = threading.Event()

        def offer(job):
            for episode in range(1, offers + 1):
                beat.offer(job, {"job": job, "episode": episode})
                time.sleep(0)

        def beating():
            while not done.is_set():
                beat.beat()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=offer, args=(j,)) for j in jobs]
            beater = threading.Thread(target=beating)
            beater.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            done.set()
            beater.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not beater.is_alive()
        assert not any(t.is_alive() for t in threads)
        for _ in range(2):  # one beat fails, the next ships the rest
            beat.beat()
        assert not beat._checkpoints
        shipped = {job: [] for job in jobs}
        for texts in client.beats:
            for job, text in texts.items():
                shipped[job].append(json.loads(text)["episode"])
        for job in jobs:
            assert shipped[job] == sorted(set(shipped[job])), job
            assert shipped[job][-1] == offers, job

    def test_lost_lease_preempts_the_search(self, toy_lut):
        client = _BeatClient(LeaseExpiredError("lease revoked"))
        beat = _Heartbeat(client, "lease-1", 3600.0)
        assert beat.beat() is False
        assert beat.lost.is_set()
        with pytest.raises(PreemptedError):
            self._capture(toy_lut, FleetWorker._make_on_checkpoint(beat, "job-a"))


#: Terminal job states.
TERMINAL = ("done", "failed", "cancelled")


def _expire_all(service):
    for lease in service.store.due_leases(now=FAR_FUTURE):
        service._expire(lease)


def _queued_cancel():
    service = _fleet_service()
    record = service.submit(_toy_job())
    assert service.cancel(record.id)
    return service, record


def _fleet_preempt():
    service, _, record = _leased()
    assert service.preempt(record)
    return service, record


def _delivered(entry):
    service, _, record = _leased()
    body = {"results": [dict(entry, job_id=record.id)]}
    service.finish_remote_batch(record.lease_id, json.loads(json.dumps(body)))
    return service, record


def _done():
    return _delivered(encode_outcome(execute_job(_toy_job())))


def _worker_failure():
    return _delivered({"error": "ValueError: bad LUT"})


def _local_worker_exited():
    service = _fleet_service(max_lease_retries=1)
    local = service.register_worker("local-0", local=True)
    record = service.submit(_toy_job())
    service.lease_batch(local.id)
    service._expire_worker_leases(local.id)
    return service, record


def _retry_budget_exhausted():
    service, _, record = _leased(max_lease_retries=1)
    _expire_all(service)
    return service, record


def _expiry_during_shutdown():
    service, _, record = _leased()
    service._closing = True
    _expire_all(service)
    return service, record


def _drain_timeout_release():
    service, _, record = _leased(drain_timeout_s=0.05)
    asyncio.run(service.shutdown())
    return service, record


class TestTerminalTransitions:
    """Every path that ends a job stamps ``finished_s`` and the outcome
    before the state turns terminal (the live-service fixtures read
    records from another thread), and leaves nothing behind."""

    @pytest.mark.parametrize(
        "path, state",
        [
            (_queued_cancel, "cancelled"),
            (_fleet_preempt, "cancelled"),
            (_done, "done"),
            (_worker_failure, "failed"),
            (_local_worker_exited, "failed"),
            (_retry_budget_exhausted, "failed"),
            (_expiry_during_shutdown, "cancelled"),
            (_drain_timeout_release, "cancelled"),
        ],
        ids=lambda value: getattr(value, "__name__", value).strip("_"),
    )
    def test_record_is_finished_before_it_is_terminal(self, monkeypatch, path, state):
        seen = []
        setattr_ = JobRecord.__setattr__

        def watched(record, name, value):
            if name == "state" and value in TERMINAL:
                seen.append(
                    (record.id, value, record.finished_s, record.error, record.result)
                )
            setattr_(record, name, value)

        monkeypatch.setattr(JobRecord, "__setattr__", watched)
        service, record = path()
        (transition,) = [row for row in seen if row[0] == record.id]
        _, terminal, finished_s, error, result = transition
        assert terminal == state
        assert finished_s is not None, "terminal before finished_s was stamped"
        if state == "done":
            assert result is not None
        elif path is not _queued_cancel:
            assert error is not None, "terminal before its error was set"
        assert record.state == state
        assert job_key(record.job) not in service._active
        assert record.done_event.is_set()
