"""Workloads ``flood`` and ``campaign``: the service under load.

* ``flood`` — open-loop Poisson arrivals (150 jobs/s) of tiny
  ``fig1_toy`` searches into ``repro serve --workers 2`` (the local
  process pool).  Job ``i`` sets ``seeds: i + 1``, which is part of the
  job key but unused by ``kind=search``: every job is a distinct store
  row while all share one LUT, so most of each job's time is data
  plane (HTTP, admission, queue, pool dispatch, store commit).
* ``campaign`` — a closed loop of two clients submitting a seeded mix
  (cold searches, multi-seed sweeps, warm starts, store-hit resubmits)
  into ``repro serve --workers 0`` plus two ``repro work`` fleet
  workers sharing one LUT cache.  Compute dominates; about one computed
  job in eight profiles its LUT, so reads and writes interleave on both
  the store and the LUT cache.

Both read the service from outside only: job records (their
``submitted_s``/``started_s``/``finished_s``/``wall_clock_s``) and
``GET /metrics``.
"""

from __future__ import annotations

import os
import random
import select
import signal
import subprocess
import sys
import time

from repro.baselines import single_library_results
from repro.core.config import SearchConfig
from repro.core.multi_seed import MultiSeedSearch, seed_range
from repro.core.search import QSDNNSearch
from repro.errors import ServiceError
from repro.runtime.campaign import CampaignJob
from repro.runtime.client import ServiceClient
from repro.runtime.lutcache import open_cache
from repro.runtime.metrics import parse_samples

from . import loadgen
from .harness import geomean, median, nearest_rank

FLOOD_RATE_PER_S = 150.0
FLOOD_JOB = {"network": "fig1_toy", "mode": "gpgpu", "episodes": 4, "kind": "search"}
WARMUP_JOBS = 3
#: One done job in this many is re-run in-process and compared bitwise.
SAMPLE_EVERY = 25
#: A flood whose sender lagged its schedule more than this at p99
#: measured the generator, not the service.
LAG_LIMIT_S = 0.010
#: Campaign jobs per requested second (its rate on the reference host).
#: The job count, not a deadline, ends the run, so every run does the
#: same work; the deadline only bounds a pathologically slow one.
CAMPAIGN_JOBS_PER_S = 10
FLEET_WORKERS = 2


class LiveService:
    """``repro serve`` (and optional ``repro work`` processes) for the
    length of a ``with`` block; traced runs start them through
    ``traced_launch``."""

    def __init__(self, ctx, serve_args: list[str], workers: int = 0,
                 worker_args: tuple[str, ...] = ()) -> None:
        self.ctx = ctx
        self.serve_args = serve_args
        self.worker_count = workers
        self.worker_args = list(worker_args)
        self.workers: list[subprocess.Popen] = []
        self.logs: list = []
        self.server: subprocess.Popen | None = None
        self.client: ServiceClient | None = None
        self.url = ""

    def _command(self, verb: str) -> list[str]:
        if self.ctx.trace_dir is not None:
            return [sys.executable, "-m", "benchmarks.e2e.traced_launch",
                    str(self.ctx.trace_dir), verb]
        return [sys.executable, "-m", "repro", verb]

    def _spawn(self, argv: list[str], log_name: str, **options) -> subprocess.Popen:
        log = open(self.ctx.work_dir / log_name, "w")
        self.logs.append(log)
        env = dict(os.environ, TMPDIR=str(self.ctx.work_dir))
        return subprocess.Popen(argv, stderr=log, env=env, text=True, **options)

    def __enter__(self) -> "LiveService":
        try:
            self._start()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _start(self) -> None:
        self.server = self._spawn(
            self._command("serve") + self.serve_args, "serve.log", stdout=subprocess.PIPE
        )
        ready, _, _ = select.select([self.server.stdout], [], [], 60)
        banner = self.server.stdout.readline() if ready else ""
        if "serving on http://" not in banner:
            raise ServiceError(f"repro serve did not start: {banner!r}")
        self.url = banner.split()[2]
        self.client = ServiceClient(self.url, timeout=60)
        for k in range(self.worker_count):
            self.workers.append(self._spawn(
                self._command("work") + ["--server", self.url, "--name", f"bench-{k}",
                                         *self.worker_args],
                f"work-{k}.log",
                stdout=subprocess.DEVNULL,
            ))
        deadline = time.monotonic() + 60
        while len(self.client.workers()["workers"]) < self.worker_count:
            if time.monotonic() > deadline:
                raise ServiceError("fleet workers did not register")
            time.sleep(0.02)

    def run_jobs(self, bodies: list[dict]) -> list[dict]:
        """Submit jobs one by one and wait for each to finish."""
        return [
            self.client.wait(self.client.submit(body)[0]["id"], poll_s=0.005, timeout=120)
            for body in bodies
        ]

    def __exit__(self, *exc) -> None:
        if self.client is not None:
            try:
                self.client.shutdown()
            except (ServiceError, OSError):
                pass
            self.client.close()
        if self.server is not None:
            _stop(self.server, None, 60)
            self.server.stdout.close()
        for worker in self.workers:
            _stop(worker, signal.SIGINT, 30)
        for log in self.logs:
            log.close()


def _stop(proc: subprocess.Popen, signum, timeout: float) -> None:
    """Ask a process to stop (``signum``, or wait for it), kill on timeout."""
    if signum is not None and proc.poll() is None:
        proc.send_signal(signum)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


# -- shared analysis ---------------------------------------------------------


def _total(samples: dict, name: str) -> float:
    return sum(samples.get(name, {}).values())


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def service_layers(samples: dict, records: list[dict], latencies: list[float],
                   measured_s: float, workers: int) -> dict:
    """Per-layer metrics read from records and ``/metrics``."""
    computed = [r for r in records if not r["from_store"] and r["started_s"] is not None]
    total_latency = sum(latencies) or 1.0
    batches = _total(samples, "repro_lease_batch_jobs_count")
    return {
        "runtime.service.queue_wait_share": sum(
            r["started_s"] - r["submitted_s"] for r in computed) / total_latency,
        "runtime.service.finish_overhead_share": sum(
            r["finished_s"] - r["started_s"] - r["wall_clock_s"] for r in computed
        ) / total_latency,
        "runtime.service.lease_batch_jobs": (
            _total(samples, "repro_lease_batch_jobs_sum") / batches if batches else 0.0),
        "runtime.service.requeued": _total(samples, "repro_jobs_requeued_total"),
        "runtime.service.refused": _total(samples, "repro_jobs_rejected_total"),
        "runtime.worker.busy_frac": _total(samples, "repro_worker_busy_seconds_total")
        / (measured_s * workers),
        "runtime.lutcache.hit_ratio": _ratio(
            _total(samples, "repro_lut_cache_hits_total"),
            _total(samples, "repro_lut_cache_misses_total")),
        "runtime.store.hit_ratio": _ratio(
            _total(samples, "repro_store_hits_total"),
            _total(samples, "repro_store_misses_total")),
        "runtime.store.flushes": _total(samples, "repro_store_flush_seconds_count"),
    }


class SoloChecker:
    """Re-runs sampled service jobs in-process over the same LUT (read
    from the service's cache directory) and compares bitwise."""

    def __init__(self, cache_dir) -> None:
        self.cache = open_cache(cache_dir)
        self._memo: dict = {}
        self._luts: dict = {}
        self._vanilla: dict = {}

    def lut(self, job: dict):
        key = (job["network"], job["platform"], job["mode"], job["seed"], job["repeats"])
        if key not in self._luts:
            self._luts[key] = self.cache.peek(CampaignJob(**job))
        return self._luts[key]

    def best_ms(self, job: dict) -> float:
        key = (job["network"], job["mode"], job["seed"], job["episodes"], job["kind"],
               job["seeds"] if job["kind"] == "multi-seed" else None)
        if key not in self._memo:
            lut = self.lut(job)
            config = SearchConfig(episodes=job["episodes"], seed=job["seed"])
            if job["kind"] == "multi-seed":
                result = MultiSeedSearch(
                    lut, config, seeds=seed_range(job["seed"], job["seeds"])
                ).run().best
            else:
                result = QSDNNSearch(lut, config).run()
            self._memo[key] = result.best_ms
        return self._memo[key]

    def vanilla_ms(self, job: dict) -> float:
        lut = self.lut(job)
        if id(lut) not in self._vanilla:
            self._vanilla[id(lut)] = next(
                r.total_ms for r in single_library_results(lut) if r.library == "vanilla"
            )
        return self._vanilla[id(lut)]

    def sample_errors(self, records: list[dict], seed: int) -> list[str]:
        """Bitwise check of a seeded 1-in-``SAMPLE_EVERY`` sample (warm
        starts excluded: their prior came from the service's corpus)."""
        eligible = [r for r in records if r["job"]["warm_start"] == "off"]
        rng = random.Random(f"solo-sample-{seed}")
        sample = [r for r in eligible if rng.randrange(SAMPLE_EVERY) == 0] or eligible[:1]
        return [
            f"{r['key']}: service best_ms {r['best_ms']!r} != solo {self.best_ms(r['job'])!r}"
            for r in sample
            if r["best_ms"] != self.best_ms(r["job"])
        ]

    def speedup(self, records: list[dict]) -> float:
        """Geometric mean over (network, mode) pairs of each pair's
        geometric-mean vanilla_ms / best_ms."""
        pairs: dict[tuple, list[float]] = {}
        for r in records:
            job = r["job"]
            pairs.setdefault((job["network"], job["mode"]), []).append(
                self.vanilla_ms(job) / r["best_ms"]
            )
        return geomean(geomean(values) for values in pairs.values())


def _summary(setup_s, wall_s, latencies, throughput, speedup, layer, extras,
             attempted, errors, failed) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies": latencies,
        "throughput_per_s": throughput,
        "speedup_x": speedup,
        "layer": layer,
        "extras": extras,
        "attempted": attempted,
        "failed": failed + len(errors),
        "errors": errors,
    }


# -- flood -------------------------------------------------------------------


def run_flood(ctx) -> dict:
    """Measure the open-loop flood; see ``child.run_workload``."""
    work = ctx.work_dir
    serve_args = ["--port", "0", "--workers", "2", "--queue-limit", "4096",
                  "--store", str(work / "store.sqlite"), "--cache-dir", str(work / "cache")]
    job = dict(FLOOD_JOB, seed=ctx.seed)
    with LiveService(ctx, serve_args) as live:
        live.run_jobs([dict(job, seeds=10**6 + k) for k in range(WARMUP_JOBS)])
        setup_s = time.time() - ctx.spawn_epoch
        if ctx.setup_only:
            return {"setup_s": setup_s}
        if ctx.smoke:
            schedule = loadgen.arrival_schedule(ctx.seed, 20.0, 0.5)
        else:
            schedule = loadgen.arrival_schedule(ctx.seed, FLOOD_RATE_PER_S, ctx.seconds)
        with ServiceClient(live.url) as sender, ServiceClient(live.url) as watcher:
            outcomes = loadgen.flood(sender, watcher, schedule, lambda i: dict(job, seeds=i + 1))
        wall_s = time.perf_counter() - ctx.started
        samples = parse_samples(live.client.metrics())

    done = [o for o in outcomes if o.get("record", {}).get("state") == "done"]
    records = [o["record"] for o in done]
    latencies = [o["record"]["finished_s"] - o["due"] for o in done]
    lags = sorted(o["sent"] - o["due"] for o in outcomes)
    lag_p99 = nearest_rank(lags, 99.0)
    start = min(o["due"] for o in outcomes)
    measured_s = max(r["finished_s"] for r in records) - start
    checker = SoloChecker(work / "cache")
    errors = checker.sample_errors(records, ctx.seed)
    if lag_p99 > LAG_LIMIT_S:
        print(f"flood: generator lag p99 {lag_p99 * 1e3:.1f} ms exceeds "
              f"{LAG_LIMIT_S * 1e3:.0f} ms; this run measured the generator",
              file=sys.stderr)
    ordered = sorted(latencies)
    layer = service_layers(samples, records, latencies, measured_s, 2)
    layer["loadgen.lag_p99_frac"] = lag_p99 / LAG_LIMIT_S
    extras = {
        "jobs": (len(outcomes), "count"),
        "flood_p50_latency_s": (median(latencies), "s"),
        "flood_p90_latency_s": (nearest_rank(ordered, 90.0), "s"),
        "flood_p99_latency_s": (nearest_rank(ordered, 99.0), "s"),
        "loadgen.lag_p99_s": (lag_p99, "s"),
        "runtime.client.submit_rtt_p50_s": (
            median([o["rtt_s"] for o in outcomes if "rtt_s" in o]), "s"),
        "runtime.campaign.execute_p50_s": (median([r["wall_clock_s"] for r in records]), "s"),
    }
    return _summary(setup_s, wall_s, latencies, len(done) / measured_s,
                    checker.speedup(records), layer, extras, len(outcomes), errors,
                    len(outcomes) - len(done))


# -- campaign ----------------------------------------------------------------


def run_campaign(ctx) -> dict:
    """Measure the closed-loop fleet campaign; see ``child.run_workload``."""
    work = ctx.work_dir
    cache = str(work / "cache")
    serve_args = ["--port", "0", "--workers", "0", "--checkpoint-every", "250",
                  "--queue-limit", "4096", "--store", str(work / "store.sqlite"),
                  "--cache-dir", cache]
    worker_args = ("--lease-batch", "4", "--cache-dir", cache, "--poll", "0.05")
    warm = [
        {"network": "fig1_toy", "mode": "cpu", "seed": ctx.seed, "episodes": 200,
         "kind": "search", "seeds": k + 1}
        for k in range(WARMUP_JOBS)
    ]
    block = sum(loadgen.MIX_BLOCK.values())
    jobs = 4 if ctx.smoke else block * max(1, round(ctx.seconds * CAMPAIGN_JOBS_PER_S / block))
    entries = loadgen.campaign_mix(ctx.seed, jobs)

    def body_of(i: int) -> dict:
        entry = entries[i]
        if entry["kind"] != "resubmit":
            return entry["body"]
        target = entry["target"]
        return entries[target]["body"] if target is not None else warm[i % WARMUP_JOBS]

    with LiveService(ctx, serve_args, FLEET_WORKERS, worker_args) as live:
        warm_records = live.run_jobs(warm)
        setup_s = time.time() - ctx.spawn_epoch
        if ctx.setup_only:
            return {"setup_s": setup_s}
        clients = [ServiceClient(live.url) for _ in range(loadgen.CLIENTS)]
        try:
            outcomes = loadgen.closed_loop(
                clients, len(entries), body_of, time.time() + 4 * ctx.seconds + 30
            )
        finally:
            for client in clients:
                client.close()
        wall_s = time.perf_counter() - ctx.started
        samples = parse_samples(live.client.metrics())

    done = {i: o["record"] for i, o in outcomes.items()
            if o.get("record", {}).get("state") == "done"}
    latencies = [done[i]["finished_s"] - outcomes[i]["sent"] for i in done]
    start = min(o["sent"] for o in outcomes.values())
    measured_s = max(r["finished_s"] for r in done.values()) - start
    computed = [r for i, r in done.items() if entries[i]["kind"] != "resubmit"]
    checker = SoloChecker(cache)
    errors = checker.sample_errors(computed, ctx.seed)
    for i, record in done.items():
        entry = entries[i]
        if entry["kind"] != "resubmit":
            continue
        target = entry["target"]
        first = warm_records[i % WARMUP_JOBS] if target is None else done.get(target)
        if first is None or record["best_ms"] != first["best_ms"]:
            errors.append(f"{record['key']}: store hit differs from its first result")
    ordered = sorted(latencies)
    extras = {
        "jobs": (len(outcomes), "count"),
        "campaign_jobs_per_s": (len(done) / measured_s, "jobs/s"),
        "campaign_p50_latency_s": (median(latencies), "s"),
        "campaign_p90_latency_s": (nearest_rank(ordered, 90.0), "s"),
    }
    for kind in ("search", "multi-seed", "warm"):
        walls = [done[i]["wall_clock_s"] for i in done if entries[i]["kind"] == kind]
        if walls:
            extras[f"runtime.campaign.execute_p50_s.{kind}"] = (median(walls), "s")
    layer = service_layers(samples, list(done.values()), latencies, measured_s, FLEET_WORKERS)
    return _summary(setup_s, wall_s, latencies, len(done) / measured_s,
                    checker.speedup(computed), layer, extras, len(outcomes), errors,
                    len(outcomes) - len(done))
