"""The async campaign service: queue, workers, HTTP API, streaming.

Most tests drive a real service over HTTP: the event loop runs in a
background thread and the stdlib :class:`ServiceClient` talks to the
bound port, so the wire format, back-pressure statuses and SSE framing
are all exercised for real.  Queue-mechanics unit tests call
``CampaignService.submit`` directly on an unstarted service (no loop,
no workers), which is the supported workers=0 mode.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.core.config import SearchConfig, ServiceConfig
from repro.core.search import QSDNNSearch
from repro.errors import ConfigError, QueueFullError, ServiceError
from repro.runtime.campaign import CampaignJob, load_or_profile_lut
from repro.runtime.client import ServiceClient
from repro.runtime.service import (
    CampaignService,
    checkpoints_of,
    jobs_from_body,
)
from repro.utils.stats import running_min
from tests.helpers import stop_loop_thread

EPISODES = 150


class LiveService:
    """A service running on a background event-loop thread."""

    def __init__(self, **overrides):
        overrides.setdefault("port", 0)
        overrides.setdefault("workers", 1)
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

    def __enter__(self) -> "LiveService":
        self._thread.start()
        assert self._started.wait(10), "service failed to start"
        self.client = ServiceClient(
            f"http://127.0.0.1:{self.service.port}", timeout=60
        )
        return self

    def wait_closed(self, timeout: float = 60.0) -> None:
        """Block until a shutdown (local or remote) has completed."""
        asyncio.run_coroutine_threadsafe(
            self.service.wait_closed(), self.loop
        ).result(timeout)

    def __exit__(self, *exc) -> None:
        try:
            # Idempotent: completes immediately if already shut down.
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


class TestSubmitPollResult:
    def test_round_trip_and_bitwise_equality(self):
        """submit -> poll -> result; best_ms bitwise == a local run."""
        with LiveService() as live:
            record = live.client.submit(_toy_body())[0]
            assert record["id"].startswith("job-")
            assert record["state"] in ("queued", "running")
            final = live.client.wait(record["id"], timeout=120)
        assert final["state"] == "done"
        assert not final["from_store"]
        payload = final["payload"]
        assert final["payload_kind"] == "search_result"
        # The service's search is the same search `repro search` runs:
        # identical LUT (deterministic profiler), identical config.
        job = CampaignJob(
            network="fig1_toy", mode="gpgpu", episodes=EPISODES, kind="search"
        )
        lut, _ = load_or_profile_lut(job)
        local = QSDNNSearch(lut, SearchConfig(episodes=EPISODES)).run()
        assert payload["best_ms"] == local.best_ms  # bitwise
        assert payload["curve_ms"] == local.curve_ms
        assert final["best_ms"] == local.best_ms

    def test_duplicate_submission_is_store_hit(self):
        with LiveService() as live:
            first = live.client.submit(_toy_body())[0]
            done = live.client.wait(first["id"], timeout=120)
            again = live.client.submit(_toy_body())[0]
            assert again["id"] != first["id"]
            assert again["state"] == "done"
            assert again["from_store"]
            assert again["best_ms"] == done["best_ms"]  # bitwise via store
            # The store answers /results queries too.
            rows = live.client.results(network="fig1_toy", mode="gpgpu")
            assert len(rows) == 1
            assert rows[0]["best_ms"] == done["best_ms"]

    def test_in_flight_duplicates_coalesce(self):
        with LiveService(workers=0) as live:
            first = live.client.submit(_toy_body())[0]
            second = live.client.submit(_toy_body())[0]
            assert second["id"] == first["id"]
            assert live.client.health()["queue_depth"] == 1

    def test_multi_seed_submission_round_trip(self):
        """A single multi-seed job (scalar 'seeds' field) must not be
        misparsed as a grid submission."""
        with LiveService() as live:
            record = live.client.submit(
                _toy_body(kind="multi-seed", seeds=2)
            )[0]
            final = live.client.wait(record["id"], timeout=120)
        assert final["state"] == "done"
        assert final["payload_kind"] == "multi_seed_result"
        assert len(final["payload"]["results"]) == 2

    def test_grid_submission_expands(self):
        with LiveService(workers=0) as live:
            records = live.client.submit(
                {
                    "networks": ["fig1_toy"],
                    "modes": ["cpu", "gpgpu"],
                    "seeds": [0, 1],
                    "episodes": EPISODES,
                }
            )
            assert len(records) == 4
            assert {r["job"]["mode"] for r in records} == {"cpu", "gpgpu"}
            assert live.client.health()["queue_depth"] == 4


class TestWarmStartSubmission:
    def test_warm_submit_mines_the_corpus(self):
        """Cold solve -> warm re-submit at half budget: the service
        resolves a stored prior from its own corpus, the warm run is no
        worse, and the uptake counter shows on ``GET /metrics``."""
        with LiveService() as live:
            cold = live.client.submit(_toy_body(seed=0))[0]
            cold_final = live.client.wait(cold["id"], timeout=120)
            warm = live.client.submit(
                _toy_body(
                    seed=0, episodes=EPISODES // 2, warm_start="stored"
                )
            )[0]
            warm_final = live.client.wait(warm["id"], timeout=120)
            metrics = live.client.metrics()
        assert warm_final["state"] == "done"
        assert not warm_final["from_store"]  # warm key != cold key
        payload = warm_final["payload"]
        assert payload["warm_start"] == "stored"
        assert payload["best_ms"] <= cold_final["best_ms"]
        assert 'repro_warm_starts_total{kind="stored"} 1' in metrics

    def test_warm_submit_with_empty_corpus_degrades_to_cold(self):
        """No corpus rows -> the job still runs, bitwise-cold, and the
        uptake counter stays silent (nothing was resolved)."""
        with LiveService() as live:
            record = live.client.submit(_toy_body(warm_start="stored"))[0]
            final = live.client.wait(record["id"], timeout=120)
            metrics = live.client.metrics()
        assert final["state"] == "done"
        # Requested kind is recorded even though the prior degraded.
        assert final["payload"]["warm_start"] == "stored"
        job = CampaignJob(
            network="fig1_toy", mode="gpgpu", episodes=EPISODES, kind="search"
        )
        lut, _ = load_or_profile_lut(job)
        local = QSDNNSearch(lut, SearchConfig(episodes=EPISODES)).run()
        assert final["payload"]["best_ms"] == local.best_ms  # bitwise
        assert final["payload"]["curve_ms"] == local.curve_ms
        assert 'repro_warm_starts_total{kind=' not in metrics


class TestProgressStreaming:
    def test_stream_matches_curve(self):
        with LiveService() as live:
            record = live.client.submit(_toy_body())[0]
            events = list(live.client.stream_progress(record["id"]))
            final = live.client.wait(record["id"], timeout=120)
        kinds = [event for event, _ in events]
        assert kinds[-1] == "done"
        checkpoints = [data for event, data in events if event == "checkpoint"]
        assert checkpoints, "no checkpoints streamed"
        # Checkpoint ordering and values match SearchResult.curve_ms:
        # strictly increasing episodes, monotone non-increasing best,
        # and each best equals the running min of the curve (bitwise).
        curve = final["payload"]["curve_ms"]
        best_curve = running_min(curve)
        episodes = [c["episode"] for c in checkpoints]
        assert episodes == sorted(set(episodes))
        bests = [c["best_ms"] for c in checkpoints]
        assert all(a >= b for a, b in zip(bests, bests[1:]))
        for point in checkpoints:
            assert point["best_ms"] == best_curve[point["episode"]]
        assert episodes[-1] == len(curve) - 1

    def test_stream_of_finished_job_replays(self):
        with LiveService() as live:
            record = live.client.submit(_toy_body())[0]
            live.client.wait(record["id"], timeout=120)
            events = list(live.client.stream_progress(record["id"]))
        assert events[0] == ("status", {"id": record["id"], "state": "done"})
        assert events[-1][0] == "done"

    def test_unknown_job_404(self):
        with LiveService(workers=0) as live:
            with pytest.raises(ServiceError, match="404"):
                list(live.client.stream_progress("job-999"))
            with pytest.raises(ServiceError, match="404"):
                live.client.job("job-999")


class TestBackPressure:
    def test_queue_full_answers_429(self):
        with LiveService(workers=0, queue_limit=2) as live:
            live.client.submit(_toy_body(seed=0))
            live.client.submit(_toy_body(seed=1))
            with pytest.raises(QueueFullError):
                live.client.submit(_toy_body(seed=2))
            # Raw status check: it really is a 429 with Retry-After.
            status, body = live.client.request(
                "POST", "/jobs", _toy_body(seed=3)
            )
            assert status == 429
            assert "full" in body["error"]

    def test_grid_admission_is_all_or_nothing(self):
        with LiveService(workers=0, queue_limit=3) as live:
            live.client.submit(_toy_body(seed=0))
            with pytest.raises(QueueFullError):
                live.client.submit(
                    {
                        "networks": ["fig1_toy"],
                        "seeds": [1, 2, 3],
                        "episodes": EPISODES,
                    }
                )
            # Nothing from the rejected grid was enqueued.
            assert live.client.health()["queue_depth"] == 1

    def test_cancel_frees_a_slot(self):
        with LiveService(workers=0, queue_limit=1) as live:
            record = live.client.submit(_toy_body(seed=0))[0]
            with pytest.raises(QueueFullError):
                live.client.submit(_toy_body(seed=1))
            cancelled = live.client.cancel(record["id"])
            assert cancelled["state"] == "cancelled"
            live.client.submit(_toy_body(seed=1))  # slot is free again

    def test_cancel_non_queued_conflicts(self):
        with LiveService() as live:
            record = live.client.submit(_toy_body())[0]
            live.client.wait(record["id"], timeout=120)
            with pytest.raises(ServiceError, match="409"):
                live.client.cancel(record["id"])


class TestShutdown:
    def test_graceful_shutdown_finishes_in_flight_jobs(self):
        with LiveService(workers=1) as live:
            # A job slow enough to still be running at shutdown time.
            slow = live.client.submit(_toy_body(episodes=8000, seed=7))[0]
            deadline = time.monotonic() + 30
            while live.client.job(slow["id"])["state"] == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.005)
            queued = live.client.submit(_toy_body(episodes=8000, seed=8))[0]
            live.client.shutdown()
            live.wait_closed()
            service = live.service
            in_flight = service.records[slow["id"]]
            assert in_flight.state == "done"
            assert in_flight.result is not None
            assert service.records[queued["id"]].state == "cancelled"

    def test_submissions_after_shutdown_are_rejected(self):
        with LiveService(workers=0) as live:
            live.client.shutdown()
            live.wait_closed()
            service = live.service
            with pytest.raises(ServiceError):
                service.submit(
                    CampaignJob(network="fig1_toy", episodes=EPISODES)
                )

    def test_remote_shutdown_task_is_strongly_referenced(self):
        """The loop holds tasks weakly — ``POST /shutdown`` must pin
        its graceful-shutdown task on the service so it cannot be
        garbage-collected mid-drain."""
        with LiveService(workers=0) as live:
            live.client.shutdown()
            live.wait_closed()
            task = live.service._shutdown_task
            assert task is not None and task.done()

    def test_shutdown_awaits_keep_alive_handlers(self):
        """A kept-alive connection's handler has returned by the time
        ``shutdown()`` does, so stopping the loop destroys no pending
        task."""

        async def handlers_left_after_shutdown():
            service = CampaignService(ServiceConfig(port=0, workers=0))
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"keep-alive" in head.lower()
            await service.shutdown()
            left = [
                task for task in asyncio.all_tasks()
                if not task.done()
                and task.get_coro().__qualname__ == "CampaignService._handle_client"
            ]
            writer.close()
            return left

        assert asyncio.run(handlers_left_after_shutdown()) == []


class TestValidation:
    def test_bad_submissions_are_400(self):
        with LiveService(workers=0) as live:
            for body in (
                {"network": "nope"},
                {"network": "fig1_toy", "typo": 1},
                {"networks": []},
                {"networks": ["fig1_toy"], "typo": 1},
                {"network": "fig1_toy", "priority": "high"},
                {"network": "fig1_toy", "mode": "tpu"},  # ValueError
                {"network": "fig1_toy", "episodes": "100"},
                {"network": "fig1_toy", "seed": "0"},  # stringly ints
                {"network": "fig1_toy", "repeats": 0},
                ["not", "an", "object"],
            ):
                status, parsed = live.client.request("POST", "/jobs", body)
                assert status == 400, body
                assert parsed["error"]
            # Bad query values answer 400 too, not a dropped connection.
            status, parsed = live.client.request("GET", "/results?seed=abc")
            assert status == 400 and parsed["error"]
            # Typo'd filters must not silently match the whole corpus.
            status, parsed = live.client.request("GET", "/results?platfrom=x")
            assert status == 400 and "platfrom" in parsed["error"]

    def test_unknown_route_404(self):
        with LiveService(workers=0) as live:
            status, _ = live.client.request("GET", "/nope")
            assert status == 404

    def test_oversized_headers_answer_400(self):
        """> 64 KiB of headers overruns the stream limit; the server
        must answer 400, not drop the connection unhandled."""
        import http.client

        with LiveService(workers=0) as live:
            conn = http.client.HTTPConnection(
                "127.0.0.1", live.service.port, timeout=30
            )
            try:
                conn.putrequest("GET", "/")
                conn.putheader("X-Pad", "x" * 70_000)
                conn.endheaders()
                response = conn.getresponse()
                assert response.status == 400
                assert b"too large" in response.read()
            finally:
                conn.close()

    def test_oversized_body_answers_400_without_reading_it(self):
        """A huge Content-Length is rejected up front — the body is
        never buffered (the declared length alone triggers the 400)."""
        import socket

        with LiveService(workers=0) as live:
            with socket.create_connection(
                ("127.0.0.1", live.service.port), timeout=30
            ) as sock:
                sock.sendall(
                    b"POST /jobs HTTP/1.1\r\n"
                    b"Content-Length: 10000000000\r\n\r\n"
                )
                response = sock.recv(65536)
        assert b"400" in response.split(b"\r\n", 1)[0]
        assert b"exceeds" in response

    def test_shutdown_with_idle_connection(self):
        """An idle client connection (nothing sent) must not block
        graceful shutdown (Python >= 3.12.1 waits for handlers)."""
        import socket

        with LiveService(workers=0) as live:
            idle = socket.create_connection(
                ("127.0.0.1", live.service.port), timeout=30
            )
            try:
                live.client.shutdown()
                live.wait_closed(timeout=15)
            finally:
                idle.close()

    def test_index_and_healthz(self):
        with LiveService(workers=0) as live:
            status, index = live.client.request("GET", "/")
            assert status == 200
            assert "POST /jobs" in index["endpoints"]
            health = live.client.health()
            assert health["status"] == "ok"
            assert health["queue_limit"] == 64


class TestJobsFromBody:
    def test_single_job_defaults_to_search_kind(self):
        jobs, priority = jobs_from_body({"network": "fig1_toy"})
        assert len(jobs) == 1
        assert jobs[0].kind == "search"
        assert priority == 10

    def test_grid_form(self):
        jobs, priority = jobs_from_body(
            {
                "networks": ["fig1_toy", "lenet5"],
                "modes": ["cpu"],
                "seeds": [0, 1],
                "kind": "table2",
                "priority": 3,
            }
        )
        assert len(jobs) == 4
        assert all(j.kind == "table2" for j in jobs)
        assert priority == 3

    def test_single_multi_seed_job_is_not_a_grid(self):
        jobs, _ = jobs_from_body(
            {"network": "fig1_toy", "kind": "multi-seed", "seeds": 3}
        )
        assert len(jobs) == 1
        assert jobs[0].kind == "multi-seed" and jobs[0].seeds == 3

    def test_rejections(self):
        for body in (
            None,
            {},
            {"networks": "fig1_toy"},
            {"network": "fig1_toy", "wat": 1},
        ):
            with pytest.raises(ConfigError):
                jobs_from_body(body)


class TestCheckpoints:
    def test_matches_running_min(self):
        job = CampaignJob(
            network="fig1_toy", mode="gpgpu", episodes=EPISODES, kind="search"
        )
        lut, _ = load_or_profile_lut(job)
        result = QSDNNSearch(lut, SearchConfig(episodes=EPISODES)).run()
        points = checkpoints_of(result)
        best_curve = running_min(result.curve_ms)
        assert points[0]["episode"] == 0
        assert points[-1]["episode"] == len(result.curve_ms) - 1
        for point in points:
            assert point["best_ms"] == best_curve[point["episode"]]
        bests = [p["best_ms"] for p in points]
        assert all(a >= b for a, b in zip(bests, bests[1:]))

    def test_curveless_payload_gets_terminal_checkpoint(self):
        class Flat:
            best_ms = 4.5
            curve_ms = []

        assert checkpoints_of(Flat()) == [{"episode": 0, "best_ms": 4.5}]
        assert checkpoints_of(object()) == []


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ServiceConfig(port=-1)
        with pytest.raises(ConfigError):
            ServiceConfig(workers=-1)
        with pytest.raises(ConfigError):
            ServiceConfig(queue_limit=0)
        with pytest.raises(ConfigError):
            ServiceConfig(heartbeat_s=0)
        with pytest.raises(ConfigError):
            ServiceConfig(keep_records=0)
        assert ServiceConfig(workers=0).workers == 0


class TestRecordRetention:
    def test_terminal_records_evicted_past_bound(self):
        """Store cache hits mint records; the retention bound keeps a
        long-running service's memory flat (payloads stay queryable
        through the store)."""
        service = CampaignService(
            ServiceConfig(workers=0, keep_records=3, queue_limit=100)
        )
        queued = service.submit(
            CampaignJob(network="fig1_toy", episodes=EPISODES, seed=99)
        )
        # Mint terminal records: cancelled jobs are finished.
        for seed in range(6):
            record = service.submit(
                CampaignJob(network="fig1_toy", episodes=EPISODES, seed=seed)
            )
            service.cancel(record.id)
        assert len(service.records) <= 3 + 1  # bound + the queued job
        # Live (non-terminal) records are never evicted.
        assert queued.id in service.records
        assert service.records[queued.id].state == "queued"

    def test_prune_never_evicts_the_record_being_returned(self):
        """Even at keep_records=1 with the map full of live records, a
        store-hit submission's record must survive its own prune — the
        acknowledged job id has to stay queryable."""
        from repro.runtime.store import ResultStore

        store = ResultStore(":memory:")
        service = CampaignService(
            ServiceConfig(workers=0, keep_records=1, queue_limit=100),
            store=store,
        )
        solved = CampaignJob(
            network="fig1_toy", mode="gpgpu", episodes=EPISODES, kind="search"
        )
        lut, _ = load_or_profile_lut(solved)
        store.put(
            solved, QSDNNSearch(lut, SearchConfig(episodes=EPISODES)).run()
        )
        # Fill the record map past the bound with live (queued) jobs.
        for seed in range(3):
            service.submit(
                CampaignJob(network="fig1_toy", episodes=EPISODES, seed=seed)
            )
        hit = service.submit(solved)
        assert hit.state == "done" and hit.from_store
        assert hit.id in service.records  # not evicted by its own prune


class TestStoreBackedAnalysis:
    def test_compare_methods_many_reuses_store(self, tmp_path):
        from repro.analysis.compare import compare_methods_many
        from repro.backends.registry import Mode
        from repro.hw import jetson_tx2
        from repro.runtime.store import ResultStore

        store_path = tmp_path / "results.sqlite"
        first = compare_methods_many(
            ["fig1_toy"], Mode.CPU, jetson_tx2(), episodes=EPISODES,
            store_path=str(store_path),
        )
        with ResultStore(store_path) as store:
            assert len(store) == 1
        again = compare_methods_many(
            ["fig1_toy"], Mode.CPU, jetson_tx2(), episodes=EPISODES,
            store_path=str(store_path),
        )
        assert again == first  # bitwise: served from the store
        # Without a store the direct path still works.
        direct = compare_methods_many(
            ["fig1_toy"], Mode.CPU, jetson_tx2(), episodes=EPISODES
        )
        assert direct == first


class TestServeSmokeCLI:
    """Tier-1 smoke of `repro serve` + `repro submit` as subprocesses."""

    def test_serve_submit_roundtrip(self, tmp_path):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--workers", "1",
                "--store", str(tmp_path / "results.sqlite"),
                "--cache-dir", str(tmp_path / "luts"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = server.stdout.readline()
            assert "serving on http://" in line, line
            url = line.split()[2]
            out = tmp_path / "record.json"
            code = subprocess.run(
                [
                    sys.executable, "-m", "repro", "submit", "--url", url,
                    "--network", "fig1_toy", "--mode", "gpgpu",
                    "--episodes", str(EPISODES), "--wait", "--watch",
                    "--out", str(out),
                ],
                capture_output=True,
                text=True,
                timeout=120,
                env=env,
            )
            assert code.returncode == 0, code.stdout + code.stderr
            assert "done: best_ms=" in code.stdout
            record = json.loads(out.read_text())
            assert record["state"] == "done"
            # Bitwise equality against the equivalent local search.
            job = CampaignJob(
                network="fig1_toy", mode="gpgpu", episodes=EPISODES,
                kind="search",
            )
            lut, _ = load_or_profile_lut(job)
            local = QSDNNSearch(lut, SearchConfig(episodes=EPISODES)).run()
            assert record["best_ms"] == local.best_ms
            ServiceClient(url, timeout=30).shutdown()
            assert server.wait(timeout=60) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(10)
