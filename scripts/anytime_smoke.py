#!/usr/bin/env python
"""End-to-end smoke of anytime search against a live service.

The acceptance script for the anytime subsystem (CI runs it):

1. start ``python -m repro serve`` with one local worker,
   ``--checkpoint-every`` enabled and a short ``--lease-ttl`` (the
   worker's heartbeats, one per third of the TTL, carry its
   checkpoints into the store);
2. submit a deliberately long scenario and read its SSE stream until a
   live ``progress`` event arrives — proof the event came from an
   in-loop checkpoint while the job was still *running*;
3. ``DELETE`` the running job — the service must answer 202, revoke
   the job's lease and land the record ``cancelled`` at once, keeping
   the latest heartbeat-carried checkpoint in the result store;
4. resubmit the same scenario with ``"resume": true`` — the job must
   finish from the checkpoint, and its ``best_ms``/``curve_ms`` must
   be **bitwise-equal** to the same scenario run uninterrupted via
   ``repro search`` — preemption must cost wall clock, never bits;
5. scrape ``GET /metrics`` and assert the preemption, the resume and
   the checkpoint writes were counted, and that completion deleted
   the checkpoint row; then shut down gracefully.

Usage::

    PYTHONPATH=src python scripts/anytime_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
# The script imports repro.runtime.client itself; make it runnable
# without an exported PYTHONPATH too.
sys.path.insert(0, str(REPO_ROOT / "src"))

PLATFORM = "jetson_tx2"
MODE = "gpgpu"
#: Capture an in-episode checkpoint every N episodes.
EVERY = 100
#: Lease TTL: the worker beats every third of it, so checkpoints (and
#: live progress) reach the service several times within the job.
LEASE_TTL_S = 1.5

#: The preemption victim: a long scenario (reference kernel episode
#: rate -> seconds of execution) so the DELETE reliably lands while
#: the search is mid-flight with checkpoints already carried.
JOB = {
    "network": "fig1_toy",
    "platform": PLATFORM,
    "mode": MODE,
    "episodes": 20000,
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


def main() -> int:
    """Run the smoke; returns the process exit code."""
    with tempfile.TemporaryDirectory(prefix="anytime-smoke-") as tmp:
        tmp_path = Path(tmp)
        serve_args = [
            "--port", "0",
            "--workers", "1",
            "--store", str(tmp_path / "results.sqlite"),
            "--cache-dir", str(tmp_path / "luts"),
            "--checkpoint-every", str(EVERY),
            "--lease-ttl", str(LEASE_TTL_S),
        ]  # fmt: skip
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *serve_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_env(),
            cwd=REPO_ROOT,
        )
        try:
            banner = server.stdout.readline()
            assert "serving on http://" in banner, banner
            url = banner.split()[2]
            print(f"[1/5] service up at {url} (checkpoint every {EVERY})")

            from repro.runtime.client import ServiceClient
            from repro.runtime.metrics import parse_samples

            client = ServiceClient(url, timeout=60)
            record = client.submit(JOB)[0]

            # A live progress event must arrive while the job is still
            # running — emitted from an in-loop checkpoint, not from
            # the post-hoc curve replay of a finished search.
            first = None
            for event, data in client.stream_progress(record["id"]):
                if event == "progress":
                    first = data
                    state = client.job(record["id"])["state"]
                    break
            assert first is not None, "stream ended without a progress event"
            assert state == "running", f"progress arrived in state {state!r}"
            assert first["episode"] % EVERY == 0 and first["episode"] > 0
            print(
                f"[2/5] live progress at episode {first['episode']} "
                f"(best {first['best_ms']:.3f} ms) while running"
            )

            cancelled = client.cancel(record["id"])
            assert cancelled["preempting"] is True, cancelled
            assert cancelled["state"] == "cancelled", cancelled
            assert "lease revoked" in cancelled["error"], cancelled["error"]
            final = client.job(record["id"])
            assert final["state"] == "cancelled", final
            print(f"[3/5] DELETE preempted the running job ({final['error']})")

            resumed = client.submit({**JOB, "resume": True})[0]
            assert resumed["id"] != record["id"]
            done = client.wait(resumed["id"], timeout=600)
            assert done["state"] == "done", done
            print(
                f"[4/5] resumed job done: best_ms={done['best_ms']!r} "
                f"({done['wall_clock_s']:.2f}s)"
            )

            # Bitwise equality with an uninterrupted local run of the
            # same scenario via the CLI.
            lut_path = tmp_path / "lut.json"
            _repro(
                "profile",
                "--network", JOB["network"],
                "--platform", PLATFORM,
                "--mode", MODE,
                "--out", str(lut_path),
            )  # fmt: skip
            sched_path = tmp_path / "sched.json"
            _repro(
                "search",
                "--lut", str(lut_path),
                "--episodes", str(JOB["episodes"]),
                "--seed", str(JOB["seed"]),
                "--out", str(sched_path),
            )  # fmt: skip
            local_best = json.loads(sched_path.read_text())["total_ms"]
            assert done["best_ms"] == local_best, (
                f"preempt+resume best_ms {done['best_ms']!r} != local "
                f"repro search {local_best!r} (must be bitwise-equal)"
            )
            # The live progress event of the *preempted* run must agree
            # bitwise with the resumed run's full curve at that episode.
            curve = done["payload"]["curve_ms"]
            assert min(curve[: first["episode"]]) == first["best_ms"], (
                "resumed curve disagrees with the preempted run's live "
                f"progress at episode {first['episode']}"
            )
            print("[5/5] preempt+resume result bitwise-equal to local search")

            samples = parse_samples(client.metrics())
            written = samples["repro_checkpoints_written_total"][()]
            preempted = samples["repro_jobs_preempted_total"][()]
            resumed_n = samples["repro_jobs_resumed_total"][()]
            assert written >= 1, samples.get("repro_checkpoints_written_total")
            assert preempted == 1, samples.get("repro_jobs_preempted_total")
            assert resumed_n == 1, samples.get("repro_jobs_resumed_total")
            # Completion hygiene: the checkpoint row is gone from the
            # store once the resumed job finished.
            results = client.results(network=JOB["network"])
            assert len(results) == 1, results
            print(
                f"metrics ok: written={written:g} preempted={preempted:g} "
                f"resumed={resumed_n:g}"
            )

            client.shutdown()
            code = server.wait(timeout=60)
            assert code == 0, f"serve exited {code}"
            print("graceful shutdown, exit 0")
            print("anytime smoke OK")
            return 0
        finally:
            if server.poll() is None:
                server.kill()
                try:
                    server.wait(10)
                except subprocess.TimeoutExpired:
                    pass
                # Orphaned worker children of a killed server share its
                # stdout pipe: a blocking read() here would hang, so
                # drain whatever is already buffered and move on.
                os.set_blocking(server.stdout.fileno(), False)
                print(server.stdout.read() or "")


if __name__ == "__main__":
    sys.exit(main())
