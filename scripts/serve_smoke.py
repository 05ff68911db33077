#!/usr/bin/env python
"""End-to-end smoke of the campaign service against live processes.

The acceptance script for the service layer (CI runs it):

1. start ``python -m repro serve`` as a real subprocess (OS-chosen
   port, one worker, sqlite store + LUT cache in a temp directory);
2. ``repro submit --network lenet5 ... --wait --watch`` against it —
   the submission must return a job id, the progress stream must yield
   monotone best-so-far episode checkpoints, and the final record must
   be ``done``;
3. reproduce the same scenario locally via ``repro profile`` +
   ``repro search`` and assert the service's ``best_ms`` is
   **bitwise-equal** (same deterministic LUT, same search config);
4. re-submit (must be an instant store cache hit) and query
   ``/results``;
5. stop the service with ``POST /shutdown`` and check a clean exit;
6. start ``repro serve`` again on the same ``--store``: re-submitting
   the scenario must be a store hit, a new scenario must reach ``done``
   within 60 s (its lease id must not collide with the first process's
   rows in the lease table), and the shutdown must exit 0.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [--episodes N]
"""

from __future__ import annotations

import argparse
import contextlib
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

NETWORK = "lenet5"
PLATFORM = "jetson_tx2"
MODE = "gpgpu"


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


@contextlib.contextmanager
def _served(tmp_path: Path):
    """``repro serve`` as a real subprocess on the smoke's store and LUT
    cache; yields ``(process, url)`` and kills a process still running
    on the way out."""
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "1",
            "--store", str(tmp_path / "results.sqlite"),
            "--cache-dir", str(tmp_path / "luts"),
        ],  # fmt: skip
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
        cwd=REPO_ROOT,
    )
    try:
        banner = server.stdout.readline()
        assert "serving on http://" in banner, banner
        yield server, banner.split()[2]
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(10)
            print(server.stdout.read())


def main() -> int:
    """Run the smoke; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--episodes", type=int, default=600)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        tmp_path = Path(tmp)
        with _served(tmp_path) as (server, url):
            print(f"[1/6] service up at {url}")

            record_path = tmp_path / "record.json"
            submit = _repro(
                "submit", "--url", url,
                "--network", NETWORK, "--platform", PLATFORM, "--mode", MODE,
                "--episodes", str(args.episodes),
                "--wait", "--watch", "--out", str(record_path),
            )  # fmt: skip
            first_line = submit.stdout.splitlines()[0]
            job_id = first_line.split()[0]
            assert job_id.startswith("job-"), first_line
            checkpoints = [
                line
                for line in submit.stdout.splitlines()
                if " episode " in line
            ]
            assert checkpoints, f"no progress checkpoints:\n{submit.stdout}"
            episodes = [int(c.split(" episode ")[1].split(":")[0]) for c in checkpoints]
            assert episodes == sorted(set(episodes)), "checkpoints out of order"
            assert episodes[0] == 0 and episodes[-1] == args.episodes - 1
            record = json.loads(record_path.read_text())
            assert record["state"] == "done", record
            served_best = record["best_ms"]
            print(
                f"[2/6] {job_id} done: best_ms={served_best!r}, "
                f"{len(checkpoints)} monotone checkpoints"
            )

            lut_path = tmp_path / "lut.json"
            sched_path = tmp_path / "sched.json"
            _repro(
                "profile", "--network", NETWORK, "--platform", PLATFORM,
                "--mode", MODE, "--out", str(lut_path),
            )  # fmt: skip
            _repro(
                "search", "--lut", str(lut_path),
                "--episodes", str(args.episodes), "--out", str(sched_path),
            )  # fmt: skip
            local_best = json.loads(sched_path.read_text())["total_ms"]
            assert served_best == local_best, (
                f"service best_ms {served_best!r} != local repro search "
                f"{local_best!r} (must be bitwise-equal)"
            )
            print(f"[3/6] bitwise-equal to local repro search: {local_best!r}")

            again = _repro(
                "submit", "--url", url,
                "--network", NETWORK, "--platform", PLATFORM, "--mode", MODE,
                "--episodes", str(args.episodes), "--wait",
            )  # fmt: skip
            assert "from_store=True" in again.stdout, again.stdout
            from repro.runtime.client import ServiceClient

            client = ServiceClient(url, timeout=30)
            rows = client.results(network=NETWORK, mode=MODE)
            assert len(rows) == 1 and rows[0]["best_ms"] == local_best
            print("[4/6] resubmission was a store cache hit; /results agrees")

            client.shutdown()
            code = server.wait(timeout=60)
            assert code == 0, f"serve exited {code}"
            print("[5/6] graceful shutdown, exit 0")

        with _served(tmp_path) as (server, url):
            again = _repro(
                "submit", "--url", url,
                "--network", NETWORK, "--platform", PLATFORM, "--mode", MODE,
                "--episodes", str(args.episodes), "--wait",
            )  # fmt: skip
            assert "from_store=True" in again.stdout, again.stdout
            client = ServiceClient(url, timeout=30)
            fresh = client.submit(
                {
                    "network": NETWORK,
                    "platform": PLATFORM,
                    "mode": MODE,
                    "episodes": args.episodes,
                    "seed": 1,
                }
            )[0]
            final = client.wait(fresh["id"], timeout=60)
            assert final["state"] == "done", final
            client.shutdown()
            client.close()
            code = server.wait(timeout=60)
            assert code == 0, f"restarted serve exited {code}"
            print(
                "[6/6] restarted on the same store: resubmission was a store "
                f"hit, new scenario {fresh['id']} done, exit 0"
            )
        print("serve smoke OK")
        return 0


if __name__ == "__main__":
    sys.exit(main())
