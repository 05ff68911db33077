"""Run one workload in a fresh process and print its result as JSON.

The ``run`` command starts this module once per workload (and a few
more times with ``--setup-only`` to sample set-up time), so the
process-level memos of the system under test never carry over from one
run to the next.  The last stdout line is the result: ``setup_s``,
``wall_s``, the per-operation ``latencies``, ``throughput_per_s``,
``speedup_x``, derived per-layer values (``layer``), the per-span
table of a traced run (``spans``), printed-only ``extras``, and the
operation counts with any correctness ``errors``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Context:
    """What a workload needs to know about its run."""

    seed: int
    seconds: float
    smoke: bool
    setup_only: bool
    #: Epoch time at which the parent started this process.
    spawn_epoch: float
    #: ``perf_counter`` at this process's start (the traced wall origin).
    started: float
    work_dir: Path
    trace_dir: Path | None
    expected: Path | None


def run_workload(workload: str, ctx: Context) -> dict:
    """Install the in-process probes when tracing, then measure."""
    recorder = None
    if ctx.trace_dir is not None and workload in ("pipeline", "search"):
        from .probes import install_search
        from .spans import Recorder

        recorder = Recorder(ctx.trace_dir)
        install_search(recorder)
    if workload == "pipeline":
        from .pipeline import run
    elif workload == "search":
        from .search import run
    elif workload == "flood":
        from .services import run_flood as run
    else:
        from .services import run_campaign as run
    result = run(ctx)
    if ctx.trace_dir is not None and not ctx.setup_only:
        from .spans import write_outputs

        if recorder is not None:
            recorder.flush()
        table = write_outputs(ctx.trace_dir, result["wall_s"])
        result["spans"] = {
            name: {"self_share": row["self_share"], "calls": row["calls"]}
            for name, row in table.items()
        }
    return result


def main(argv: list[str] | None = None) -> int:
    """Parse the child's arguments, run, print the JSON result."""
    started = time.perf_counter()
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child")
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "search", "flood", "campaign"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawn-epoch", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--expected", default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        smoke=args.smoke,
        setup_only=args.setup_only,
        spawn_epoch=args.spawn_epoch,
        started=started,
        work_dir=Path(args.work_dir),
        trace_dir=Path(args.trace_dir) if args.trace_dir else None,
        expected=Path(args.expected) if args.expected else None,
    )
    print(json.dumps(run_workload(args.workload, ctx)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
