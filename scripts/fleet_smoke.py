#!/usr/bin/env python
"""End-to-end smoke of the worker fleet against live processes.

The acceptance script for the fleet layer (CI runs it):

1. start ``python -m repro serve`` with **zero local workers** (the
   queue drains only through the worker-pull protocol) and a short
   lease TTL;
2. start two ``python -m repro work`` subprocesses against it;
3. submit jobs, wait until one is leased, then **SIGKILL** the worker
   owning the lease mid-run — the service must expire the lease after
   the TTL and requeue the job;
4. assert every job completes anyway (the surviving worker picks up
   the requeued job) with a ``best_ms`` **bitwise-equal** to the same
   scenario run locally via ``repro search`` — remote execution must
   be indistinguishable from local;
5. scrape ``GET /metrics`` and assert the Prometheus exposition
   parses, records the expired lease and the requeue, counts the
   completions, and reads no active lease and no running job once the
   queue has drained; then shut down gracefully.

With ``--lease-batch N`` (N > 1) the smoke exercises the batched data
plane instead: the jobs are queued *before* the workers start, so the
first worker to poll claims all of them under ONE multi-job lease —
the SIGKILL then proves that every job of the batch is requeued
exactly once and still completes bitwise-equal on the survivor, and
the metrics scrape asserts the lease-batch histogram actually saw a
multi-job lease.

Usage::

    PYTHONPATH=src python scripts/fleet_smoke.py
    PYTHONPATH=src python scripts/fleet_smoke.py --lease-batch 3
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
# The script imports repro.runtime.client itself; make it runnable
# without an exported PYTHONPATH too.
sys.path.insert(0, str(REPO_ROOT / "src"))

PLATFORM = "jetson_tx2"
MODE = "gpgpu"
LEASE_TTL_S = 2.0

#: The kill victim: a deliberately slow scenario (reference kernel,
#: large episode budget -> seconds of execution) so SIGKILL reliably
#: lands while the lease is held.  Backends are bit-identical, so
#: pinning "reference" costs nothing but wall clock.
SLOW_JOB = {
    "network": "mobilenet_v1",
    "platform": PLATFORM,
    "mode": MODE,
    "episodes": 20000,
    "seed": 0,
    "kernel": "reference",
}

#: A fast job riding along: normal fleet completion on the survivor.
#: Seed 0 like the slow job (distinct networks keep the jobs distinct):
#: the job seed also seeds LUT profiling, and the local `repro
#: profile` comparison below runs with its seed-0 default.
FAST_JOB = {
    "network": "lenet5",
    "platform": PLATFORM,
    "mode": MODE,
    "episodes": 600,
    "seed": 0,
}

#: A second fast job for batch mode, so the victim's single lease
#: covers three jobs (distinct from FAST_JOB via the episode budget).
EXTRA_JOB = {
    "network": "lenet5",
    "platform": PLATFORM,
    "mode": MODE,
    "episodes": 500,
    "seed": 0,
}


def _env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _repro(*args: str, timeout: float = 300.0) -> subprocess.CompletedProcess:
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=_env(),
        cwd=REPO_ROOT,
    )
    if result.returncode != 0:
        raise SystemExit(
            f"repro {' '.join(args)} failed ({result.returncode}):\n"
            f"{result.stdout}{result.stderr}"
        )
    return result


def _spawn_worker(
    url: str, name: str, log_path: Path, lease_batch: int = 1
) -> subprocess.Popen:
    log = open(log_path, "w")
    argv = [
        sys.executable,
        "-m",
        "repro",
        "work",
        "--server",
        url,
        "--name",
        name,
        "--poll",
        "0.1",
    ]
    if lease_batch > 1:
        argv += ["--lease-batch", str(lease_batch)]
    return subprocess.Popen(
        argv,
        stdout=log,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
        cwd=REPO_ROOT,
    )


def _wait_for(predicate, timeout_s: float, what: str):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.1)
    raise SystemExit(f"timed out after {timeout_s}s waiting for {what}")


def main() -> int:
    """Run the smoke; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--lease-batch",
        type=int,
        default=1,
        help="jobs per lease for the fleet workers (N > 1 runs the "
        "batched-data-plane variant of the smoke)",
    )
    args = parser.parse_args()
    batch = max(1, args.lease_batch)

    with tempfile.TemporaryDirectory(prefix="fleet-smoke-") as tmp:
        tmp_path = Path(tmp)
        serve_args = [
            "--port", "0",
            "--workers", "0",
            "--store", str(tmp_path / "results.sqlite"),
            "--cache-dir", str(tmp_path / "luts"),
            "--lease-ttl", str(LEASE_TTL_S),
            "--lease-check", "0.2",
            "--drain-timeout", "5",
        ]  # fmt: skip
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *serve_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_env(),
            cwd=REPO_ROOT,
        )
        workers: dict[str, subprocess.Popen] = {}
        try:
            banner = server.stdout.readline()
            assert "serving on http://" in banner, banner
            url = banner.split()[2]
            print(f"[1/5] service up at {url} (workers=0: fleet-only)")

            from repro.runtime.client import ServiceClient
            from repro.runtime.metrics import parse_samples

            client = ServiceClient(url, timeout=30)
            if batch > 1:
                # Batch mode: queue every job *before* any worker
                # exists, so the first worker to poll claims all of
                # them under one multi-job lease (slow job first —
                # the SIGKILL lands while it runs).
                slow = client.submit(SLOW_JOB)[0]
                fast = client.submit(FAST_JOB)[0]
                submitted = [slow, fast, client.submit(EXTRA_JOB)[0]]
            workers["a"] = _spawn_worker(url, "smoke-a", tmp_path / "a.log", batch)
            workers["b"] = _spawn_worker(url, "smoke-b", tmp_path / "b.log", batch)
            registered = _wait_for(
                lambda: len(client.workers()["workers"]) == 2 or None,
                30,
                "both workers to register",
            )
            assert registered
            print(f"[2/5] two fleet workers registered (lease batch {batch})")

            if batch == 1:
                # Two scenarios: both must complete even though one
                # worker is about to be killed mid-lease.
                slow = client.submit(SLOW_JOB)[0]
                fast = client.submit(FAST_JOB)[0]
                submitted = [slow, fast]

            # Kill whoever holds the *slow* job's lease: its seconds
            # of runtime guarantee the SIGKILL lands mid-lease.
            def _slow_lease():
                for lease in client.workers()["leases"]:
                    covered = lease.get("job_ids", [lease["job_id"]])
                    if slow["id"] in covered:
                        return lease
                return None

            lease = _wait_for(_slow_lease, 60, "a worker to lease the slow job")
            if batch > 1:
                assert len(lease["job_ids"]) == len(submitted), (
                    "batch mode: the victim's lease must cover every "
                    f"queued job, got {lease['job_ids']}"
                )
            victim_worker_id = lease["worker"]
            victim_lease_id = lease["lease_id"]
            name_of = {i["id"]: i["name"] for i in client.workers()["workers"]}
            victim_name = name_of[victim_worker_id]
            victim = workers["a"] if victim_name.endswith("-a") else workers["b"]
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
            print(
                f"[3/5] SIGKILLed {victim_name} ({victim_worker_id}) "
                f"holding {victim_lease_id}"
            )

            # The lease must expire (no more heartbeats) and the job
            # must be requeued — visible as a fresh lease attempt and,
            # ultimately, a completed job.
            def _victim_lease_gone():
                live = {lease["lease_id"] for lease in client.workers()["leases"]}
                return None if victim_lease_id in live else True

            _wait_for(
                _victim_lease_gone,
                LEASE_TTL_S * 10,
                "the victim's lease to expire",
            )

            finals = [client.wait(record["id"], timeout=600) for record in submitted]
            for final in finals:
                assert final["state"] == "done", final
            slow_final = finals[0]
            assert slow_final["attempts"] > 1, (
                "the slow job was not re-leased after the kill: "
                f"attempts={slow_final['attempts']}"
            )
            if batch > 1:
                # Every job of the killed batch must have been
                # requeued exactly once — no sibling lost, none
                # double-requeued.
                for final in finals:
                    assert final["attempts"] == 2, (
                        f"{final['job']['network']}: expected exactly one "
                        f"requeue, attempts={final['attempts']}"
                    )
            print(
                "[4/5] all jobs done; slow job re-leased after expiry "
                f"(attempts: {[f['attempts'] for f in finals]})"
            )

            # Bitwise equality with local `repro search`, per job.
            for final in finals:
                job = final["job"]
                lut_path = tmp_path / f"lut-{job['network']}.json"
                if not lut_path.exists():
                    _repro(
                        "profile",
                        "--network", job["network"],
                        "--platform", PLATFORM,
                        "--mode", MODE,
                        "--out", str(lut_path),
                    )  # fmt: skip
                sched_path = tmp_path / f"sched-{job['network']}.json"
                _repro(
                    "search",
                    "--lut", str(lut_path),
                    "--episodes", str(job["episodes"]),
                    "--seed", str(job["seed"]),
                    "--kernel", job["kernel"],
                    "--out", str(sched_path),
                )  # fmt: skip
                local_best = json.loads(sched_path.read_text())["total_ms"]
                assert final["best_ms"] == local_best, (
                    f"{job['network']}: fleet best_ms "
                    f"{final['best_ms']!r} != local repro search "
                    f"{local_best!r} (must be bitwise-equal)"
                )
            print("[5/5] fleet results bitwise-equal to local repro search")

            samples = parse_samples(client.metrics())
            completed = sum(samples.get("repro_jobs_completed_total", {}).values())
            expired = sum(samples.get("repro_leases_expired_total", {}).values())
            requeues = sum(samples.get("repro_jobs_requeued_total", {}).values())
            assert completed >= 2, samples.get("repro_jobs_completed_total")
            assert expired >= 1, samples.get("repro_leases_expired_total")
            assert requeues >= 1, samples.get("repro_jobs_requeued_total")
            assert samples["repro_workers_registered"][()] >= 2.0
            # Drained: every lease closed, nothing left running.
            for gauge in ("repro_leases_active", "repro_jobs_running"):
                assert samples[gauge][()] == 0.0, (gauge, samples[gauge])
            if batch > 1:
                batch_sum = samples["repro_lease_batch_jobs_sum"][()]
                batch_count = samples["repro_lease_batch_jobs_count"][()]
                assert batch_sum > batch_count, (
                    "batch mode: the lease-batch histogram never saw a "
                    f"multi-job lease (sum={batch_sum:g}, "
                    f"count={batch_count:g})"
                )
            print(
                f"metrics ok: completed={completed:g} expired={expired:g} "
                f"requeued={requeues:g}"
            )

            client.shutdown()
            code = server.wait(timeout=60)
            assert code == 0, f"serve exited {code}"
            survivor = [p for p in workers.values() if p.poll() is None]
            for proc in survivor:
                # Workers exit on their own once the service is gone.
                proc.wait(timeout=30)
            print("graceful shutdown, exit 0")
            print("fleet smoke OK")
            return 0
        finally:
            for proc in workers.values():
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(10)
            if server.poll() is None:
                server.kill()
                server.wait(10)
                print(server.stdout.read())
            for log_name in ("a.log", "b.log"):
                log_path = tmp_path / log_name
                if log_path.exists():
                    print(f"--- worker {log_name} ---")
                    print(log_path.read_text())


if __name__ == "__main__":
    sys.exit(main())
