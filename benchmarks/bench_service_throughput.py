"""E8 — campaign-service data-plane throughput (jobs/s on small jobs).

The fused episode kernels made individual searches cheap enough that
for small jobs the *data plane* dominates: connection setup per HTTP
request, one lease round-trip per job, one result round-trip per job,
one fsync'ing sqlite transaction per write.  This bench floods a live
service with tiny fig1_toy searches and measures end-to-end jobs/s
plus submit→result latency in three configurations:

* ``local`` — the service's own 2 local workers: forked processes
  that lease over loopback, one job per lease, on keep-alive
  connections (``repro serve --workers 2``).
* ``fleet_legacy`` — 2 in-process fleet workers with the
  pre-batching settings: one job per lease, a fresh TCP connection
  per request (``keep_alive=False``), rollback-journal store with one
  commit per write.  It speaks the same protocol as the batched arm —
  each one-job lease delivers a batch of one through
  ``POST /leases/{id}/results`` — so it measures those settings, not
  a separate protocol.
* ``fleet_batched`` — the same 2 workers with batched leases
  (``lease_batch``), persistent keep-alive connections, and a
  WAL + group-commit store; every result batch lands through one
  ``put_many`` transaction.

Results are bitwise-identical across modes by construction (same
``execute_job``, same encode/decode round-trip); the bench asserts
every job completed.  The machine-readable ``BENCH_service.json``
lands next to the repo root; ``scripts/check_bench_artifact.py``
validates its schema and ``scripts/check_bench_regression.py
--service`` gates CI on jobs/s and the batched-over-legacy speedup.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import threading
import time

from repro import __version__
from repro.core.config import ServiceConfig
from repro.runtime.client import ServiceClient
from repro.runtime.service import CampaignService
from repro.runtime.store import ResultStore
from repro.runtime.worker import FleetWorker, WorkerConfig

#: Machine-readable artifact consumed by CI and revision comparisons.
BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_service.json"
#: Artifact layout version (validated by the CI artifact check).
BENCH_SCHEMA_VERSION = 1

#: The flood: N small jobs with distinct identities.  Job i varies the
#: ``seeds`` field (unused by ``kind="search"`` execution and not part
#: of the LUT key), so every job has the same tiny cost, shares one
#: memoised LUT, and still lands as a distinct row in the store —
#: exactly the regime where the data plane dominates wall clock.
N_JOBS = 60
NETWORK = "fig1_toy"
MODE = "gpgpu"
#: Fixed episode budget of every flood job (tiny on fig1_toy).
EPISODES = 4
#: Warmup jobs use ``seeds`` values far above the flood's range so
#: they never collide with measured job identities.
WARMUP_SEEDS = (901, 902)

FLEET_WORKERS = 2
#: Concurrent submitting clients during the timed flood.
SUBMIT_THREADS = 4
#: Jobs per lease in the batched configuration.
LEASE_BATCH = 30
GROUP_COMMIT = 32


class _LiveService:
    """A CampaignService running on a background event-loop thread."""

    def __init__(
        self,
        store_path: str,
        cache_dir: str,
        store: ResultStore | None = None,
        **overrides,
    ) -> None:
        self.config = ServiceConfig(
            port=0,
            store_path=store_path,
            cache_dir=cache_dir,
            queue_limit=N_JOBS + 8,
            **overrides,
        )
        self.service = CampaignService(self.config, store=store)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def _run() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.service.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=_run, daemon=True)
        self.thread.start()
        started.wait(timeout=30)
        self.url = f"http://127.0.0.1:{self.service.port}"

    def shutdown(self) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(), self.loop
        )
        future.result(timeout=60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


def _drain(worker: FleetWorker, stop: threading.Event) -> None:
    """A fleet worker's bench loop: lease/execute/report until told to
    stop (an empty poll is a long-poll the service answers the moment
    a job is queued)."""
    while not stop.is_set():
        try:
            worker.run_one()
        except Exception:
            if stop.is_set():
                return
            time.sleep(0.01)


def _submit(client: ServiceClient, seeds: int) -> str:
    records = client.submit(
        {
            "network": NETWORK,
            "mode": MODE,
            "episodes": EPISODES,
            "seeds": seeds,
            "kind": "search",
            "kernel": "reference",
        }
    )
    return records[0]["id"]


def _wait_done(service: CampaignService, job_ids: list[str], timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        records = [service.records.get(jid) for jid in job_ids]
        if all(
            r is not None and r.finished and r.finished_s is not None
            for r in records
        ):
            return
        time.sleep(0.002)
    states = {jid: getattr(service.records.get(jid), "state", "?") for jid in job_ids}
    raise AssertionError(f"jobs not terminal after {timeout}s: {states}")


def _percentile(sorted_values: list[float], q: float) -> float:
    index = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def _measure(live: _LiveService, keep_alive: bool) -> dict:
    """Flood the service with N_JOBS and measure jobs/s + latency.

    Submissions run from SUBMIT_THREADS concurrent clients (each with
    its own connection, as real submitters would) so the flood itself
    exercises the submission path's connection behaviour.
    """
    job_ids: list[str | None] = [None] * N_JOBS
    errors: list[BaseException] = []

    def _flood(thread_index: int) -> None:
        client = ServiceClient(live.url, keep_alive=keep_alive)
        try:
            for i in range(thread_index, N_JOBS, SUBMIT_THREADS):
                job_ids[i] = _submit(client, seeds=i + 1)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)
        finally:
            client.close()

    t0 = time.perf_counter()
    threads = [
        threading.Thread(target=_flood, args=(k,), daemon=True)
        for k in range(SUBMIT_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, f"submission failed: {errors[0]!r}"
    _wait_done(live.service, job_ids, timeout=120.0)
    wall = time.perf_counter() - t0
    records = [live.service.records[jid] for jid in job_ids]
    bad = {r.id: (r.state, r.error) for r in records if r.state != "done"}
    assert not bad, f"jobs did not complete: {bad}"
    latencies = sorted(r.finished_s - r.submitted_s for r in records)
    store = live.service.store
    return {
        "jobs": N_JOBS,
        "wall_clock_s": wall,
        "jobs_per_s": N_JOBS / wall,
        "p50_latency_s": _percentile(latencies, 0.50),
        "p99_latency_s": _percentile(latencies, 0.99),
        "store": {
            "wal": store.wal,
            "group_commit": store.group_commit,
            "flushes": store.flush_stats["flushes"],
            "rows": store.flush_stats["rows"],
            "flush_total_s": store.flush_stats["total_s"],
        },
    }


def _run_local_mode(tmp: pathlib.Path, cache_dir: str) -> dict:
    live = _LiveService(
        str(tmp / "local.sqlite"), cache_dir, workers=FLEET_WORKERS
    )
    client = ServiceClient(live.url)
    try:
        warm = [_submit(client, seeds=s) for s in WARMUP_SEEDS]
        _wait_done(live.service, warm, timeout=120.0)
        measured = _measure(live, keep_alive=True)
    finally:
        client.close()
        live.shutdown()
    measured.update(workers=FLEET_WORKERS, lease_batch=1, keep_alive=True)
    return measured


def _run_fleet_mode(
    tmp: pathlib.Path,
    cache_dir: str,
    name: str,
    lease_batch: int,
    keep_alive: bool,
    wal: bool,
    group_commit: int,
) -> dict:
    live = _LiveService(
        str(tmp / f"{name}.sqlite"),
        cache_dir,
        store=ResultStore(
            tmp / f"{name}.sqlite", wal=wal, group_commit=group_commit
        ),
        workers=0,
        store_wal=wal,
    )
    client = ServiceClient(live.url, keep_alive=keep_alive)
    stop = threading.Event()
    workers = []
    threads = []
    try:
        for index in range(FLEET_WORKERS):
            worker = FleetWorker(
                WorkerConfig(
                    server=live.url,
                    name=f"bench-{index}",
                    cache_dir=cache_dir,
                    poll_s=0.05,
                    lease_batch=lease_batch,
                ),
                client=ServiceClient(live.url, keep_alive=keep_alive),
            )
            worker.register()
            thread = threading.Thread(
                target=_drain, args=(worker, stop), daemon=True
            )
            thread.start()
            workers.append(worker)
            threads.append(thread)
        warm = [_submit(client, seeds=s) for s in WARMUP_SEEDS]
        _wait_done(live.service, warm, timeout=120.0)
        measured = _measure(live, keep_alive=keep_alive)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        for worker in workers:
            worker.client.close()
        client.close()
        live.shutdown()
    assert sum(w.stats.lost_leases for w in workers) == 0, "lost leases mid-bench"
    measured.update(
        workers=FLEET_WORKERS, lease_batch=lease_batch, keep_alive=keep_alive
    )
    return measured


def test_service_throughput(tmp_path, emit):
    """The small-job flood: local workers, legacy fleet, batched fleet.

    The batched data plane must beat the legacy one clearly even on a
    noisy CI box (the committed artifact records the real margin; the
    regression gate tracks it across revisions).
    """
    from repro.utils.tables import AsciiTable

    cache_dir = str(tmp_path / "lutcache")
    modes = {
        "local": _run_local_mode(tmp_path, cache_dir),
        "fleet_legacy": _run_fleet_mode(
            tmp_path,
            cache_dir,
            "fleet_legacy",
            lease_batch=1,
            keep_alive=False,
            wal=False,
            group_commit=0,
        ),
        "fleet_batched": _run_fleet_mode(
            tmp_path,
            cache_dir,
            "fleet_batched",
            lease_batch=LEASE_BATCH,
            keep_alive=True,
            wal=True,
            group_commit=GROUP_COMMIT,
        ),
    }
    speedup = modes["fleet_batched"]["jobs_per_s"] / modes["fleet_legacy"]["jobs_per_s"]

    table = AsciiTable(
        ["mode", "jobs/s", "wall (s)", "p50 (ms)", "p99 (ms)", "store flushes"],
        title=f"E8 | service data plane, {N_JOBS} x {NETWORK} jobs",
    )
    for name, row in modes.items():
        table.add_row(
            [
                name,
                f"{row['jobs_per_s']:,.0f}",
                f"{row['wall_clock_s']:.3f}",
                f"{row['p50_latency_s'] * 1e3:.1f}",
                f"{row['p99_latency_s'] * 1e3:.1f}",
                str(row["store"]["flushes"]),
            ]
        )
    emit(
        "service_throughput",
        table.render() + f"\nbatched fleet vs legacy fleet: {speedup:.2f}x",
    )

    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "service_throughput",
        "version": __version__,
        "jobs": N_JOBS,
        "network": NETWORK,
        "mode": MODE,
        "episodes": EPISODES,
        "modes": modes,
        "speedup": {"fleet": speedup},
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    # Soft in-test floor (CI boxes are noisy); the committed artifact
    # and the regression gate carry the real >= 4x acceptance margin.
    assert speedup >= 2.0, (
        f"batched fleet data plane only {speedup:.2f}x over legacy "
        f"({modes['fleet_batched']['jobs_per_s']:.0f} vs "
        f"{modes['fleet_legacy']['jobs_per_s']:.0f} jobs/s)"
    )
