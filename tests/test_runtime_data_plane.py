"""The flood data plane: what each job pays on its way through the service.

Record eviction stops after its victims, record views are built without
deep copies, each result is serialized once per side and served as the
stored text, one beat thread serves all of a worker's leases, the LUT
memo answers before the cache chain is built, a request read is bounded
by a timer instead of a Task, and queries on active leases read a
partial index instead of the whole lease table.
Each class pins one of these against the behaviour it replaced.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import asdict, fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.runtime.campaign as campaign
import repro.runtime.service as service_mod
import repro.runtime.store as store_mod
from repro.core.config import ServiceConfig
from repro.errors import LeaseExpiredError
from repro.runtime.campaign import (
    CampaignJob,
    CampaignResult,
    execute_job,
    load_or_profile_lut,
)
from repro.runtime.client import ServiceClient
from repro.runtime.metrics import parse_samples
from repro.runtime.service import CampaignService, JobRecord
from repro.runtime.store import (
    LeaseRecord,
    ResultStore,
    encode_payload,
    job_key,
)
from repro.runtime.worker import (
    FleetWorker,
    WorkerConfig,
    encode_outcome,
)
from tests.test_runtime_fleet import FAR_FUTURE, LiveFleet, _fleet_service, _toy_job

REPO = Path(__file__).resolve().parents[1]


def _error_delivery(service, record) -> None:
    """End a running record through a worker-reported failure."""
    service.finish_remote_batch(
        record.lease_id, {"results": [{"job_id": record.id, "error": "boom"}]}
    )


# -- 1. record eviction --------------------------------------------------------


def _old_survivors(order: list[str], finished: set[str], keep: str, cap: int):
    """The eviction rule before it stopped early: drop the first
    ``excess`` finished records other than ``keep``."""
    excess = len(order) - cap
    if excess <= 0:
        return order
    victims = set([jid for jid in order if jid in finished and jid != keep][:excess])
    return [jid for jid in order if jid not in victims]


_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["submit", "submit", "submit", "lease", "cancel", "cancel", "fail", "expire"]
        ),
        st.integers(min_value=0, max_value=50),
    ),
    min_size=1,
    max_size=80,
)


class TestRecordEviction:
    @settings(max_examples=300, deadline=None)
    @given(cap=st.integers(min_value=1, max_value=5), ops=_OPS)
    @example(cap=2, ops=[("submit", 0), ("cancel", 0)] * 2 + [("submit", 0)])
    def test_evicts_exactly_what_the_old_rule_evicted(self, cap, ops):
        service = _fleet_service(keep_records=cap, max_lease_retries=1)
        info = service.register_worker("host")
        seq = 0
        for op, pick in ops:
            records = list(service.records.values())
            queued = [r for r in records if r.state == "queued"]
            running = [r for r in records if r.state == "running"]
            if op == "submit":
                order = list(service.records)
                finished = {r.id for r in records if r.finished}
                seq += 1
                record = service.submit(_toy_job(seeds=seq))
                expected = _old_survivors(
                    order + [record.id], finished, record.id, cap
                )
                assert list(service.records) == expected
                live = {r.id for r in records if not r.finished} | {record.id}
                assert live <= set(service.records)
            elif op == "lease" and queued:
                service.lease_batch(info.id, 1 + pick % 2)
            elif op == "cancel" and queued:
                assert service.cancel(queued[pick % len(queued)].id)
            elif op == "fail" and running:
                _error_delivery(service, running[pick % len(running)])
            elif op == "expire" and running:
                for lease in service.store.due_leases(now=FAR_FUTURE):
                    service._expire(lease)

    def test_visits_o_excess_records_when_the_oldest_are_finished(
        self, monkeypatch
    ):
        cap = 64
        service = _fleet_service(keep_records=cap)
        for seq in range(cap):
            assert service.cancel(service.submit(_toy_job(seeds=seq + 1)).id)
        visits = []
        finished = JobRecord.finished

        def counting(record):
            visits.append(record.id)
            return finished.fget(record)

        monkeypatch.setattr(JobRecord, "finished", property(counting))
        for seq in range(100):
            visits.clear()
            record = service.submit(_toy_job(seeds=1000 + seq))
            assert len(service.records) == cap
            assert visits and len(visits) <= 2, len(visits)
            assert service.cancel(record.id)


# -- 2. record views ----------------------------------------------------------


def _lease_view_via_asdict(lease: LeaseRecord) -> dict:
    """``LeaseRecord.to_dict`` as it was, on ``dataclasses.asdict``."""
    body = asdict(lease)
    ids = lease.job_ids
    body["job_id"] = ids[0]
    body["job_key"] = lease.job_keys[0]
    body["job_ids"] = ids
    body["jobs"] = len(ids)
    return body


_JOBS = st.builds(
    CampaignJob,
    network=st.sampled_from(["fig1_toy", "lenet5", "alexnet"]),
    platform=st.sampled_from(["jetson_tx2", "raspberry_pi3"]),
    mode=st.sampled_from(["cpu", "gpgpu"]),
    seed=st.integers(min_value=0, max_value=2**31),
    episodes=st.none() | st.integers(min_value=1, max_value=10**6),
    kind=st.sampled_from(["search", "multi-seed", "table2", "compare"]),
    repeats=st.integers(min_value=1, max_value=100),
    seeds=st.integers(min_value=1, max_value=64),
    kernel=st.sampled_from(["auto", "reference", "mega"]),
)


class TestDirectViews:
    @settings(max_examples=100, deadline=None)
    @given(job=_JOBS)
    def test_job_view_is_asdict(self, job):
        view = job.to_dict()
        assert view == asdict(job)
        assert list(view) == [f.name for f in fields(CampaignJob)]

    def test_warm_job_view_is_asdict(self):
        job = _toy_job(warm_start="stored")
        assert job.to_dict() == asdict(job)

    @settings(max_examples=100, deadline=None)
    @given(
        jobs=st.integers(min_value=1, max_value=5),
        state=st.sampled_from(["active", "completed", "expired"]),
        heartbeats=st.integers(min_value=0, max_value=9),
        finished=st.none() | st.floats(min_value=0, max_value=2e9),
    )
    def test_lease_view_is_the_asdict_view(self, jobs, state, heartbeats, finished):
        lease = LeaseRecord(
            lease_id="lease-7",
            job_id=" ".join(f"job-{i}" for i in range(jobs)),
            job_key=" ".join(f"key/{i}" for i in range(jobs)),
            worker="w1-host",
            state=state,
            attempt=2,
            created_s=1.5,
            deadline_s=31.5,
            heartbeats=heartbeats,
            finished_s=finished,
        )
        view = lease.to_dict()
        expected = _lease_view_via_asdict(lease)
        assert view == expected
        assert list(view) == list(expected)

    def test_record_and_results_rows_carry_the_asdict_job(self):
        service = _fleet_service()
        record = service.submit(_toy_job())
        assert record.to_dict()["job"] == asdict(record.job)
        with LiveFleet() as live:
            live.service.store.put(record.job, execute_job(record.job).payload)
            (row,) = live.client.results()
        assert row["job"] == asdict(record.job)


# -- 3. one encode per result -------------------------------------------------


KINDS = {
    "search": {},
    "multi-seed": {"seeds": 3},
    "table2": {},
    "compare": {},
}


@pytest.fixture(scope="module")
def results() -> dict[str, CampaignResult]:
    return {
        kind: execute_job(_toy_job(kind=kind, episodes=40, **extra))
        for kind, extra in KINDS.items()
    }


def _reencoded_view(record: JobRecord) -> dict:
    """The ``GET /jobs/{id}`` body built the long way — the record view
    plus the payload re-encoded and parsed back — which the spliced
    body must reproduce."""
    body = record.to_dict()
    body["job"] = asdict(record.job)
    kind, text = encode_payload(record.result.payload)
    body["payload_kind"] = kind
    body["payload"] = json.loads(text)
    return body


def _count_encodes(monkeypatch) -> list:
    calls = []
    original = store_mod.encode_payload

    def counting(payload):
        calls.append(type(payload).__name__)
        return original(payload)

    monkeypatch.setattr(store_mod, "encode_payload", counting)
    return calls


def _stored_text(service, job) -> tuple[str, str]:
    return service.store._conn.execute(
        "SELECT payload_kind, payload FROM results WHERE key = ?", (job_key(job),)
    ).fetchone()


class TestEncodeOnce:
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_delivered_result_is_stored_and_served_as_one_encode(
        self, kind, results, monkeypatch
    ):
        result = results[kind]
        canonical = encode_payload(result.payload)
        service = _fleet_service()
        info = service.register_worker("host")
        record = service.submit(result.job)
        service.lease_batch(info.id)
        encodes = _count_encodes(monkeypatch)
        outcome = dict(encode_outcome(result), job_id=record.id)
        assert encodes == []  # the worker's one serialization is the body
        body = json.loads(json.dumps({"results": [outcome]}))
        service.finish_remote_batch(record.lease_id, body)
        assert record.state == "done"
        assert len(encodes) == 1
        assert _stored_text(service, result.job) == canonical
        assert record.encoded == canonical
        for _ in range(3):
            served = record.to_json()
            assert json.loads(served) == _reencoded_view(record)
            assert served == json.dumps(_reencoded_view(record))
        assert len(encodes) == 1

        # A store hit encodes its decoded payload once, on the first GET.
        hit = CampaignService(service.config, store=service.store).submit(result.job)
        assert hit.from_store and hit.encoded is None
        for _ in range(2):
            assert json.loads(hit.to_json()) == _reencoded_view(hit)
        assert hit.encoded == canonical
        assert len(encodes) == 2

    @pytest.mark.parametrize(
        "kind, dropped",
        [("search", ["warm_start"]), ("compare", ["linear_q_ms", "mlp_q_ms"])],
    )
    def test_a_row_missing_a_defaulted_field_is_served_with_the_default(
        self, kind, dropped, results
    ):
        """Rows written before a field existed decode with its default;
        the GET body is the one the decoded payload re-encodes to, not
        the row's text."""
        result = results[kind]
        payload_kind, text = encode_payload(result.payload)
        old = json.loads(text)
        for key in dropped:
            del old[key]
        old_text = json.dumps(old)
        service = _fleet_service()
        service.store.put_many(
            [(result.job, result.payload, 0.5, (payload_kind, old_text))]
        )
        assert _stored_text(service, result.job) == (payload_kind, old_text)
        hit = service.submit(result.job)
        assert hit.from_store
        served = json.loads(hit.to_json())
        assert served == _reencoded_view(hit)
        for key in dropped:
            assert key in served["payload"]
        assert served["payload"] != old

    def test_over_http_the_body_is_the_stored_canonical_text(self):
        with LiveFleet() as live:
            record = live.client.submit(
                {"network": "fig1_toy", "mode": "gpgpu", "episodes": 40}
            )[0]
            url = f"http://127.0.0.1:{live.service.port}"
            with ServiceClient(url) as client:
                worker = FleetWorker(WorkerConfig(server=url), client=client)
                worker.register()
                assert worker.run_one() is True
            served = live.client.wait(record["id"], timeout=60)
            job = CampaignJob(**served["job"])
            kind, text = _stored_text(live.service, job)
        assert encode_payload(store_mod.decode_payload(kind, text)) == (kind, text)
        assert served["payload_kind"] == kind
        assert served["payload"] == json.loads(text)
        assert served["payload"]["best_ms"] == execute_job(job).payload.best_ms

    @pytest.mark.parametrize("payload", [["not", "an", "object"], "text", 7])
    def test_a_payload_that_is_not_an_object_is_rejected_and_requeued(
        self, payload
    ):
        service = _fleet_service()
        info = service.register_worker("host")
        record = service.submit(_toy_job())
        service.lease_batch(info.id)
        entry = {
            "job_id": record.id,
            "payload_kind": "search_result",
            "payload": payload,
            "wall_clock_s": 0.1,
        }
        status, body = service.finish_remote_batch(
            record.lease_id, {"results": [entry]}
        )
        assert status == 200
        assert body["results"][0]["status"] == "rejected"
        assert body["requeued"] == [record.id]
        assert record.state == "queued"

    def test_a_record_without_stored_text_encodes_lazily_once(
        self, results, monkeypatch
    ):
        result = results["search"]
        record = JobRecord(id="job-1", job=result.job, state="done", result=result)
        encodes = _count_encodes(monkeypatch)
        assert json.loads(record.to_json()) == _reencoded_view(record)
        record.to_json()
        assert len(encodes) == 1


# -- 4. one beat thread per worker --------------------------------------------


class _LeasingClient:
    """Grants ``leases`` one-job leases of a tiny search, then 204s;
    records every heartbeat as ``(time, lease_id, checkpoints)``."""

    def __init__(self, leases: int, worker_id: str, heartbeat_s: float = 10.0):
        self.leases = leases
        self.worker_id = worker_id
        self.heartbeat_s = heartbeat_s
        self.granted = 0
        self.beats: list[tuple[float, str, dict | None]] = []
        self.delivered: list[str] = []
        self.conflict = False

    def register_worker(self, name=None):
        return {"worker": {"id": self.worker_id}, "heartbeat_s": self.heartbeat_s}

    def lease(self, worker_id, max_jobs=1, wait_s=0.0):
        if self.granted >= self.leases:
            return None
        self.granted += 1
        job = _toy_job(episodes=4, seeds=self.granted)
        entry = {"id": f"job-{self.granted}", "job": asdict(job), "key": job_key(job)}
        lease = {"lease_id": f"lease-{self.granted}", "attempt": 1}
        return {"lease": lease, "jobs": [entry], "checkpoint_every": 1}

    def heartbeat(self, lease_id, checkpoints=None):
        self.beats.append((time.monotonic(), lease_id, checkpoints))
        if self.conflict:
            raise LeaseExpiredError("lease revoked")
        return {}

    def submit_results(self, lease_id, outcomes):
        self.delivered.append(lease_id)
        return {"results": []}


def _beat_threads(name: str) -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == name]


def _stop_beating(worker: FleetWorker) -> None:
    """End the beat thread a test started outside the worker's loop."""
    thread = worker._beat_thread
    worker._stop_beating()
    if thread is not None:
        thread.join(timeout=5)
        assert not thread.is_alive()


class TestOneBeatThread:
    def test_twenty_leases_use_one_beat_thread(self):
        client = _LeasingClient(20, "w-twenty")
        worker = FleetWorker(
            WorkerConfig(server="http://stub", max_jobs=20), client=client
        )
        worker.register()
        seen = []  # the thread objects themselves: an id could be reused
        lease = client.lease

        def leasing(*args, **kwargs):
            if worker._beat_thread is not None:
                seen.append(worker._beat_thread)
            return lease(*args, **kwargs)

        client.lease = leasing
        stats = worker.run()
        assert stats.completed == 20
        assert client.delivered == [f"lease-{i}" for i in range(1, 21)]
        assert len(seen) >= 19 and all(thread is seen[0] for thread in seen)
        seen[0].join(timeout=5)  # closed when the loop returned
        assert not seen[0].is_alive()

    def test_a_lease_is_beaten_every_interval_from_its_grant(self):
        client = _LeasingClient(0, "w-cadence")
        worker = FleetWorker(WorkerConfig(server="http://stub"), client=client)
        worker.register()
        worker.heartbeat_s = interval = 0.1
        granted = time.monotonic()
        beat = worker._heartbeat("lease-a")
        time.sleep(1.0)
        beat.stop()
        times = [t for t, lease, _ in client.beats if lease == "lease-a"]
        assert 5 <= len(times) <= 11, times
        assert times[0] - granted >= 0.8 * interval
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert min(gaps) >= 0.8 * interval, gaps
        stopped = len(client.beats)
        time.sleep(0.3)
        assert len(client.beats) <= stopped + 1  # at most one beat in flight
        _stop_beating(worker)

    def test_a_409_sets_lost_and_stops_the_search_at_its_next_checkpoint(self):
        client = _LeasingClient(1, "w-lost", heartbeat_s=0.05)
        client.conflict = True
        worker = FleetWorker(WorkerConfig(server="http://stub"), client=client)
        worker.register()
        long_job = _toy_job(episodes=200_000)
        grant = {
            "lease": {"lease_id": "lease-1", "attempt": 1},
            "jobs": [{"id": "job-1", "job": asdict(long_job), "key": job_key(long_job)}],
            "checkpoint_every": 50,
        }
        started = time.monotonic()
        try:
            assert worker._process(grant) is False
        finally:
            _stop_beating(worker)
        assert time.monotonic() - started < 10.0  # far short of the full run
        assert worker.stats.lost_leases == 1
        assert client.delivered == []
        assert [lease for _, lease, _ in client.beats] == ["lease-1"]

    def test_a_checkpoint_offered_under_one_lease_never_ships_in_the_next(
        self, monkeypatch
    ):
        client = _LeasingClient(6, "w-carry", heartbeat_s=0.01)
        worker = FleetWorker(
            WorkerConfig(server="http://stub", max_jobs=6), client=client
        )
        worker.register()
        result = execute_job(_toy_job(episodes=4))

        def offering(job, *args, on_checkpoint=None, **kwargs):
            # Offer across several beats, and once more after the last
            # beat of the lease could have gone out.
            for episode in range(1, 6):
                on_checkpoint({"job": job.seeds, "episode": episode})
                time.sleep(0.012)
            on_checkpoint({"job": job.seeds, "episode": 99})
            return result

        monkeypatch.setattr("repro.runtime.worker.execute_job", offering)
        assert worker.run().completed == 6
        shipped = [(lease, ckpts) for _, lease, ckpts in client.beats if ckpts]
        assert shipped, "no checkpoint was carried"
        for lease, ckpts in shipped:
            n = lease.split("-")[1]
            assert list(ckpts) == [f"job-{n}"], (lease, ckpts)
            assert json.loads(ckpts[f"job-{n}"])["job"] == int(n)

    def test_stress_concurrent_workers_keep_leases_apart(self, monkeypatch):
        """Four workers (more than the cores here), each leasing 40
        short jobs beaten every millisecond under a shortened switch
        interval.  Per worker: one beat thread for the whole run, every
        beat and checkpoint lands under the lease that offered it, and
        every lease that outlived a few intervals was beaten."""
        result = execute_job(_toy_job(episodes=4))

        def offering(job, *args, on_checkpoint=None, **kwargs):
            for episode in range(1, 4):
                on_checkpoint({"job": job.seeds, "episode": episode})
                time.sleep(0.003)
            return result

        monkeypatch.setattr("repro.runtime.worker.execute_job", offering)
        clients = [_LeasingClient(40, f"w-stress-{k}", heartbeat_s=0.001) for k in range(4)]
        workers = [
            FleetWorker(WorkerConfig(server="http://stub", max_jobs=40), client=c)
            for c in clients
        ]
        threads_seen = [[] for _ in workers]  # strong references: no id reuse
        for worker, client, seen in zip(workers, clients, threads_seen):
            worker.register()
            lease = client.lease
            name = f"heartbeat-{client.worker_id}"

            def leasing(*args, lease=lease, name=name, seen=seen, **kwargs):
                seen.extend(_beat_threads(name))
                return lease(*args, **kwargs)

            client.lease = leasing
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runners = [threading.Thread(target=w.run) for w in workers]
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(runner.is_alive() for runner in runners)
        for worker, client, seen in zip(workers, clients, threads_seen):
            assert worker.stats.completed == 40
            assert len(seen) >= 39 and all(thread is seen[0] for thread in seen)
            beaten = set()
            for _, lease, ckpts in client.beats:
                n = lease.split("-")[1]
                beaten.add(n)
                for job_id, text in (ckpts or {}).items():
                    assert job_id == f"job-{n}", (lease, job_id)
                    assert json.loads(text)["job"] == int(n)
            assert len(beaten) >= 30, sorted(beaten)

    def test_a_forked_worker_beats_from_its_own_thread(self):
        client = _LeasingClient(0, "w-fork")
        worker = FleetWorker(WorkerConfig(server="http://stub"), client=client)
        worker.register()
        worker.heartbeat_s = 5.0
        parent = worker._heartbeat("lease-parent")  # the thread waits on it
        assert worker._beat_thread.is_alive()
        worker.heartbeat_s = 0.05
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports through the pipe
            try:
                beat = worker._heartbeat("lease-child")
                time.sleep(0.4)
                beat.stop()
                child = sum(1 for _, lease, _ in client.beats if lease == "lease-child")
                os.write(write, str(child).encode())
            finally:
                os._exit(0)
        parent.stop()
        _stop_beating(worker)
        os.close(write)
        with os.fdopen(read) as pipe:
            beats = int(pipe.read() or 0)
        os.waitpid(pid, 0)
        assert beats >= 3

    def test_the_beat_thread_ends_with_run_one_and_with_run(self):
        """No beat thread outlives the loop that started it: one left
        running would keep later sweeps in this process from forking
        (``multi_seed.shard_count`` wants a single-threaded process)."""
        client = _LeasingClient(3, "w-end")
        worker = FleetWorker(
            WorkerConfig(server="http://stub", max_jobs=3), client=client
        )
        worker.register()
        threads = []
        submit = client.submit_results

        def delivering(*args, **kwargs):
            threads.append(worker._beat_thread)
            return submit(*args, **kwargs)

        client.submit_results = delivering
        assert worker.run_one() is True
        assert worker.run().completed == 3
        assert len(threads) == 3 and threads[0] is not threads[1] is threads[2]
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert _beat_threads("heartbeat-w-end") == []

    def test_anytime_service_passes_after_the_fleet_tests_in_one_process(self):
        """In-process fleet workers start beat threads in this process;
        local workers forked from it afterwards must still beat, and
        sweeps run afterwards must still fork."""
        selected = [
            "tests/test_runtime_fleet.py::TestFleetWorkerOverHttp"
            "::test_fleet_execution_is_bitwise_equal_to_local",
            "tests/test_anytime_service.py::TestLiveProgress",
            "tests/test_core_multi_seed.py::TestShardedSweeps"
            "::test_sharded_equals_in_process",
        ]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *selected],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stdout[-2000:]
        assert "12 passed" in done.stdout


# -- 5. the LUT memo answers first --------------------------------------------


class TestLutMemoFirst:
    def test_a_memo_hit_builds_no_cache_chain(self, tmp_path, monkeypatch):
        job = _toy_job(seed=123)
        lut, _ = load_or_profile_lut(job, tmp_path)
        opened = []
        monkeypatch.setattr(campaign, "open_cache", lambda *a: opened.append(a))
        again, from_cache = load_or_profile_lut(job, tmp_path)
        assert again is lut and from_cache is True
        assert opened == []

    def test_each_cache_directory_is_resolved_once(self, tmp_path, monkeypatch):
        job = _toy_job(seed=124)
        load_or_profile_lut(job, tmp_path)
        resolved = []
        original = Path.resolve

        def counting(path, *args, **kwargs):
            resolved.append(path)
            return original(path, *args, **kwargs)

        monkeypatch.setattr(Path, "resolve", counting)
        for _ in range(3):
            load_or_profile_lut(job, tmp_path)
        assert resolved == []

    def test_a_relative_cache_dir_resolves_against_the_current_directory(
        self, tmp_path, monkeypatch
    ):
        job = _toy_job()
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
        monkeypatch.chdir(tmp_path / "a")
        in_a = campaign._lut_memo_key(job, "cache", None)
        monkeypatch.chdir(tmp_path / "b")
        in_b = campaign._lut_memo_key(job, "cache", None)
        assert in_a[0] == str((tmp_path / "a" / "cache").resolve())
        assert in_b[0] == str((tmp_path / "b" / "cache").resolve())

    def test_no_cache_still_profiles_every_call(self):
        job = _toy_job(seed=125)
        first, hit = load_or_profile_lut(job)
        second, _ = load_or_profile_lut(job)
        assert hit is False and first is not second


# -- 6. the request read deadline ---------------------------------------------


def _connect(live) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", live.service.port), timeout=10)
    sock.settimeout(10)
    return sock


def _until_closed(sock) -> bytes:
    """Everything the server sends before it drops the connection."""
    received = b""
    try:
        while chunk := sock.recv(4096):
            received += chunk
    except ConnectionResetError:
        pass
    return received


class TestReadDeadline:
    @pytest.mark.parametrize("sent", [b"", b"GET /healthz HTTP/1.1\r\nHost: x\r\n"])
    def test_an_idle_or_stalled_connection_is_dropped_without_a_response(
        self, sent, monkeypatch
    ):
        with LiveFleet() as live:
            # Patched after the service started: read at request time.
            monkeypatch.setattr(service_mod, "REQUEST_READ_TIMEOUT_S", 0.3)
            sock = _connect(live)
            try:
                started = time.monotonic()
                sock.sendall(sent)
                assert _until_closed(sock) == b""  # dropped, nothing written
                elapsed = time.monotonic() - started
            finally:
                sock.close()
            assert 0.25 <= elapsed < 5.0, elapsed
            assert live.client.health()["status"] == "ok"

    def test_a_request_inside_the_deadline_is_served(self, monkeypatch):
        with LiveFleet() as live:
            monkeypatch.setattr(service_mod, "REQUEST_READ_TIMEOUT_S", 0.6)
            sock = _connect(live)
            try:
                # Three requests outlast one deadline: each gets its own.
                for _ in range(3):
                    time.sleep(0.15)
                    sock.sendall(b"GET /healthz HTTP/1.1\r\n")
                    time.sleep(0.15)
                    sock.sendall(b"Host: x\r\n\r\n")
                    head = sock.recv(4096)
                    assert head.startswith(b"HTTP/1.1 200 OK"), head
                # Then idle: dropped one deadline later, nothing written.
                assert _until_closed(sock) == b""
            finally:
                sock.close()


# -- satellite: active-lease queries read a partial index ------------------


class TestLeasesActiveGauge:
    def test_gauge_equals_the_lease_table(self, tmp_path):
        path = tmp_path / "store.sqlite"
        service = CampaignService(
            ServiceConfig(workers=0, port=0, drain_timeout_s=0.1),
            store=ResultStore(path),
        )
        info = service.register_worker("host")
        table = service.store

        def check() -> float:
            gauge = parse_samples(service.metrics.render())["repro_leases_active"][()]
            assert gauge == len(table.active_leases())
            assert service.stats()["leases_active"] == gauge
            return gauge

        records = [service.submit(_toy_job(seed=seed)) for seed in range(6)]
        assert check() == 0
        service.lease_batch(info.id, 2)
        (third,) = service.lease_batch(info.id)
        assert check() == 2
        service.heartbeat(third.lease_id)
        assert check() == 2
        for lease in table.due_leases(now=FAR_FUTURE):  # expiry
            service._expire(lease)
        assert check() == 0
        (late,) = service.lease_batch(info.id)
        table.heartbeat_lease(late.lease_id, -1.0)  # its deadline passes
        with pytest.raises(LeaseExpiredError):
            service.heartbeat(late.lease_id)
        assert check() == 0  # a beat past the deadline expires the lease
        assert late.state == "queued"  # ... and requeues its job
        (delivered,) = service.lease_batch(info.id)
        assert check() == 1
        _error_delivery(service, delivered)  # delivery
        assert check() == 0
        (revoked,) = service.lease_batch(info.id)
        assert service.preempt(revoked)  # release
        assert check() == 0
        service.lease_batch(info.id)
        assert check() == 1
        asyncio.run(service.shutdown())  # past the drain: released
        assert records
        with ResultStore(path) as reopened:
            assert reopened.active_leases() == []


def _vm_steps(store: ResultStore, call) -> int:
    """SQLite virtual-machine instructions ``call`` runs on the store's
    connection: a count of the rows a query visits, free of timing."""
    steps = [0]

    def tick() -> int:
        steps[0] += 1
        return 0

    store._conn.set_progress_handler(tick, 1)
    try:
        call()
    finally:
        store._conn.set_progress_handler(None, 1)
    return steps[0]


class TestActiveLeaseIndex:
    def test_a_store_from_before_the_index_gains_it_at_open(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as store:
            store._conn.execute("DROP INDEX leases_active")
            store.create_lease("lease-1", "job-1", "k1", "w1", 30.0)
        with ResultStore(path) as store:
            (count,) = store._conn.execute(
                "SELECT COUNT(*) FROM sqlite_master "
                "WHERE type = 'index' AND name = 'leases_active'"
            ).fetchone()
            assert count == 1
            assert [lease.lease_id for lease in store.active_leases()] == ["lease-1"]

    def test_active_lease_queries_do_not_grow_with_finished_leases(self):
        """The scrape gauges, the reaper sweep and the start/stop release
        visit the active leases only, however many finished rows the
        table has kept."""

        def steps_with(finished: int) -> list[int]:
            store = ResultStore(":memory:")
            store._conn.executemany(
                "INSERT INTO leases VALUES (?, ?, ?, 'w1', ?, 1, 0.0, 30.0, 0, 1.0)",
                [(f"old-{i}", f"job-{i}", f"k{i}", "completed") for i in range(finished)],
            )
            store._conn.commit()
            for n in range(3):
                store.create_lease(f"lease-{n}", f"j{n}", f"key{n}", "w1", 30.0, now=0.0)
            service = CampaignService(ServiceConfig(workers=0, port=0), store=store)
            steps = [
                _vm_steps(store, service.metrics.render),
                _vm_steps(store, service.stats),
                _vm_steps(store, lambda: store.due_leases(now=10.0)),
                _vm_steps(store, store.release_active_leases),
            ]
            store.close()
            return steps

        few, many = steps_with(10), steps_with(5_000)
        for small, large in zip(few, many):
            assert large <= small * 1.5 + 50, (few, many)
