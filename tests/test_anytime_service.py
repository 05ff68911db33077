"""Anytime search over the service: live progress, preemption, resume.

Every test drives a real service over HTTP (event loop on a background
thread, stdlib client), mirroring the harnesses in
``test_runtime_service.py`` / ``test_runtime_fleet.py``.  Covered
here: SSE ``progress`` events arriving while the job is still
*running* (not the post-hoc curve replay), ``DELETE`` preempting a
running local-worker job by revoking its lease (its latest
heartbeat-carried checkpoint kept), lease revocation preempting a
fleet job (sibling batch jobs requeued, the worker's next heartbeat
answering 409), and ``"resume": true`` resubmission finishing
bitwise-identical to an uninterrupted run.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.core.config import SearchConfig, ServiceConfig
from repro.core.multi_seed import MultiSeedSearch, seed_range
from repro.core.search import QSDNNSearch
from repro.errors import LeaseExpiredError
from repro.runtime.campaign import CampaignJob, load_or_profile_lut
from repro.runtime.client import ServiceClient
from repro.runtime.metrics import parse_samples
from repro.runtime.service import CampaignService
from repro.runtime.store import job_key
from repro.runtime.worker import FleetWorker, WorkerConfig
from tests.helpers import stop_loop_thread

#: Long enough (~2 s at the reference backend's episode rate) that the
#: job is reliably mid-flight when the test preempts or kills it.
LONG = 20_000
EVERY = 100
#: Lease TTL of the tests that watch a local job mid-flight: workers
#: beat every third of it, and each beat carries the job's latest
#: checkpoint (its live progress and its preemption snapshot).
BEAT_TTL_S = 1.5


class LiveAnytime:
    """A service on a background event-loop thread (anytime configs)."""

    def __init__(self, **overrides):
        overrides.setdefault("port", 0)
        overrides.setdefault("workers", 1)
        overrides.setdefault("checkpoint_every", EVERY)
        overrides.setdefault("heartbeat_s", 0.05)
        # A test that leaves a fleet lease outstanding would otherwise
        # spend the default 30 s drain window in shutdown.
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

    def __enter__(self) -> "LiveAnytime":
        self._thread.start()
        assert self._started.wait(10), "service failed to start"
        self.url = f"http://127.0.0.1:{self.service.port}"
        self.client = ServiceClient(self.url, timeout=60)
        return self

    def __exit__(self, *exc) -> None:
        try:
            asyncio.run_coroutine_threadsafe(
                self.service.shutdown(), self.loop
            ).result(60)
        finally:
            stop_loop_thread(self.loop, self._thread)
            self.client.close()

    def raw(self, method: str, path: str, body=None):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.service.port, timeout=30
        )
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            return response.status, json.loads(raw) if raw else {}
        finally:
            conn.close()

    def wait_state(self, job_id: str, state: str, timeout: float = 60.0) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            record = self.client.job(job_id)
            if record["state"] == state:
                return record
            assert time.monotonic() < deadline, (
                f"job {job_id} stuck in {record['state']!r}, wanted {state!r}"
            )
            time.sleep(0.02)


def _long_body(**overrides):
    body = {"network": "fig1_toy", "mode": "gpgpu", "episodes": LONG}
    body.update(overrides)
    return body


def _local_long():
    job = CampaignJob(
        network="fig1_toy", mode="gpgpu", episodes=LONG, kind="search"
    )
    lut, _ = load_or_profile_lut(job)
    return QSDNNSearch(lut, SearchConfig(episodes=LONG)).run()


class TestLiveProgress:
    def test_progress_event_arrives_while_job_is_running(self):
        """Satellite contract: at least one SSE ``progress`` event is
        delivered while the job is still *running* — progress is live
        from in-loop checkpoints, not replayed after the fact."""
        with LiveAnytime(lease_ttl_s=BEAT_TTL_S) as live:
            record = live.client.submit(_long_body())[0]
            first = None
            for event, data in live.client.stream_progress(record["id"]):
                if event == "progress":
                    first = data
                    state = live.client.job(record["id"])["state"]
                    break
            assert first is not None, "stream ended without a progress event"
            assert state == "running"
            assert first["id"] == record["id"]
            assert 0 < first["episode"] < LONG
            assert first["episode"] % EVERY == 0
            assert first["best_ms"] > 0.0
            final = live.client.wait(record["id"], timeout=120)
            assert final["state"] == "done"

    def test_full_stream_interleaves_progress_with_status(self):
        with LiveAnytime(lease_ttl_s=BEAT_TTL_S) as live:
            record = live.client.submit(_long_body())[0]
            events = list(live.client.stream_progress(record["id"]))
        kinds = [event for event, _ in events]
        assert kinds[-1] == "done"
        progress = [data for event, data in events if event == "progress"]
        assert progress, "no live progress events on the stream"
        episodes = [p["episode"] for p in progress]
        assert episodes == sorted(episodes)  # monotone, no duplicates
        assert len(set(episodes)) == len(episodes)
        bests = [p["best_ms"] for p in progress]
        assert all(a >= b for a, b in zip(bests, bests[1:]))


def _preempt_then_resume(**kind) -> dict:
    """DELETE a running local-worker job mid-flight, resubmit it with
    ``"resume": true`` and return the finished record."""
    with LiveAnytime(lease_ttl_s=BEAT_TTL_S) as live:
        record = live.client.submit(_long_body(**kind))[0]
        # Wait for the first in-flight checkpoint, proving a heartbeat
        # carried a snapshot into the store to preempt into.
        for event, _ in live.client.stream_progress(record["id"]):
            if event == "progress":
                break
        status, body = live.raw("DELETE", f"/jobs/{record['id']}")
        assert status == 202
        assert body["preempting"] is True
        assert body["state"] == "cancelled"  # the lease is revoked at once
        assert "lease revoked" in body["error"]
        key = job_key(CampaignJob(**body["job"]))
        stored = live.service.store.get_checkpoint(key)
        assert stored is not None
        assert 0 < stored.episode < LONG
        samples = parse_samples(live.client.metrics())
        assert samples["repro_jobs_preempted_total"][()] == 1.0
        assert samples["repro_checkpoints_written_total"][()] >= 1.0

        # Resubmission with resume picks the checkpoint up and the
        # finished run is bitwise an uninterrupted one.
        resumed = live.client.submit(_long_body(resume=True, **kind))[0]
        assert resumed["id"] != record["id"]
        final = live.client.wait(resumed["id"], timeout=120)
        assert final["state"] == "done"
        samples = parse_samples(live.client.metrics())
        assert samples["repro_jobs_resumed_total"][()] == 1.0
        # Completion hygiene: the checkpoint row is gone.
        assert live.service.store.get_checkpoint(key) is None
    return final


class TestPreemptResume:
    def test_delete_preempts_running_job_then_resume_is_bitwise(self):
        final = _preempt_then_resume()
        local = _local_long()
        assert final["best_ms"] == local.best_ms  # bitwise
        assert final["payload"]["curve_ms"] == local.curve_ms
        assert final["payload"]["best_assignments"] == local.best_assignments

    def test_delete_preempts_running_multi_seed_job_then_resume_is_bitwise(self):
        """The same preemption with a 2-seed sweep: every member of
        the resumed sweep is bitwise a local uninterrupted one."""
        final = _preempt_then_resume(kind="multi-seed", seeds=2)
        job = CampaignJob(
            network="fig1_toy", mode="gpgpu", episodes=LONG, kind="multi-seed"
        )
        lut, _ = load_or_profile_lut(job)
        local = MultiSeedSearch(
            lut, SearchConfig(episodes=LONG), seeds=seed_range(0, 2)
        ).run()
        members = final["payload"]["results"]
        assert len(members) == 2
        for member, solo in zip(members, local.results):
            assert member["best_ms"] == solo.best_ms  # bitwise
            assert member["curve_ms"] == solo.curve_ms

    def test_resume_without_checkpoint_runs_from_scratch(self):
        """``"resume": true`` with nothing persisted is not an error —
        the job simply starts at episode 0."""
        episodes = 150
        with LiveAnytime() as live:
            record = live.client.submit(
                _long_body(episodes=episodes, resume=True)
            )[0]
            final = live.client.wait(record["id"], timeout=120)
            assert final["state"] == "done"
        job = CampaignJob(
            network="fig1_toy", mode="gpgpu", episodes=episodes, kind="search"
        )
        lut, _ = load_or_profile_lut(job)
        local = QSDNNSearch(lut, SearchConfig(episodes=episodes)).run()
        assert final["best_ms"] == local.best_ms

    def test_resume_flag_must_be_boolean(self):
        with LiveAnytime(workers=0) as live:
            status, body = live.raw(
                "POST", "/jobs", _long_body(resume="yes")
            )
            assert status == 400
            assert "resume" in body["error"]

    def test_delete_running_without_checkpointing_revokes_the_lease(self):
        """With checkpointing disabled there is no snapshot to preempt
        into: DELETE on a running job still revokes its lease (202,
        cancelled at once, nothing stored), the worker's late delivery
        is refused, and the worker goes on to serve the next job."""
        with LiveAnytime(checkpoint_every=0) as live:
            record = live.client.submit(_long_body(episodes=8000))[0]
            live.wait_state(record["id"], "running", timeout=30)
            status, body = live.raw("DELETE", f"/jobs/{record['id']}")
            assert status == 202
            assert body["state"] == "cancelled"
            assert "lease revoked" in body["error"]
            key = job_key(CampaignJob(**body["job"]))
            assert live.service.store.get_checkpoint(key) is None
            status, body = live.raw("DELETE", f"/jobs/{record['id']}")
            assert status == 409
            assert "only queued jobs" in body["error"]
            after = live.client.submit(_long_body(episodes=150, seed=3))[0]
            assert live.client.wait(after["id"], timeout=120)["state"] == "done"
            # The revoked run's delivery was refused: the job stays
            # cancelled and its result never reached the store.
            assert live.client.job(record["id"])["state"] == "cancelled"
            assert live.service.store.get(CampaignJob(**record["job"])) is None


class TestFleetLeaseRevocation:
    def test_delete_revokes_lease_and_requeues_batch_siblings(self):
        """Preempting one fleet job revokes the whole lease: the
        worker's next heartbeat answers 409, the target is cancelled
        (checkpoint retained), and its innocent batch siblings go back
        to the queue rather than being discarded."""
        with LiveAnytime(workers=0) as live:
            grant = live.client.register_worker("revoked")
            worker_id = grant["worker"]["id"]
            target = live.client.submit(_long_body(seed=0))[0]
            sibling = live.client.submit(_long_body(seed=1))[0]
            leased = live.client.lease(worker_id, max_jobs=2)
            assert len(leased["jobs"]) == 2
            assert leased["checkpoint_every"] == EVERY
            lease_id = leased["lease"]["lease_id"]

            status, body = live.raw("DELETE", f"/jobs/{target['id']}")
            assert status == 202
            assert body["preempting"] is True
            assert body["state"] == "cancelled"  # fleet path is immediate
            assert "lease revoked" in body["error"]
            # The next heartbeat tells the worker to stop.
            with pytest.raises(LeaseExpiredError):
                live.client.heartbeat(lease_id)
            # Requeue-vs-discard is explicit: the sibling is queued
            # again (attempt 2 comes from a fresh lease), not lost.
            requeued = live.client.job(sibling["id"])
            assert requeued["state"] == "queued"
            released = live.client.lease(worker_id)
            assert released["jobs"][0]["id"] == sibling["id"]
            assert released["lease"]["attempt"] == 2

    def test_fleet_worker_preempted_mid_job_then_resumed_bitwise(self):
        """End to end over HTTP: a real FleetWorker's heartbeats carry
        checkpoints into the store, DELETE revokes its lease mid-run,
        the worker stops without reporting, and the resubmitted job
        resumes from the carried checkpoint to a bitwise-equal
        finish."""
        with LiveAnytime(workers=0, lease_ttl_s=1.2) as live:
            record = live.client.submit(_long_body())[0]
            worker = FleetWorker(WorkerConfig(server=live.url))
            worker.register()
            assert worker.heartbeat_s == pytest.approx(0.4)
            ran = threading.Thread(target=worker.run_one, daemon=True)
            ran.start()
            key = job_key(CampaignJob(
                network="fig1_toy", mode="gpgpu", episodes=LONG, kind="search"
            ))
            deadline = time.monotonic() + 30
            while live.service.store.get_checkpoint(key) is None:
                assert time.monotonic() < deadline, "no checkpoint carried"
                assert ran.is_alive(), "worker finished before preemption"
                time.sleep(0.02)
            status, body = live.raw("DELETE", f"/jobs/{record['id']}")
            assert status == 202 and body["preempting"] is True
            ran.join(timeout=30)
            assert not ran.is_alive()
            assert worker.stats.lost_leases == 1
            assert worker.stats.completed == 0
            assert live.client.job(record["id"])["state"] == "cancelled"
            # The revoked job's checkpoint survives for the resume.
            stored = live.service.store.get_checkpoint(key)
            assert stored is not None

            resumed = live.client.submit(_long_body(resume=True))[0]
            assert worker.run_one() is True
            final = live.client.wait(resumed["id"], timeout=120)
            assert final["state"] == "done"
            assert worker.stats.completed == 1
            assert live.service.store.get_checkpoint(key) is None
        local = _local_long()
        assert final["best_ms"] == local.best_ms  # bitwise
        assert final["payload"]["curve_ms"] == local.curve_ms
