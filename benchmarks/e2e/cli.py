"""The benchmark's command line.

    python -m benchmarks.e2e run [--workload W] [--seed S] [--seconds T]
                                 [--trace [0|1]] [--out F] [--baseline F]
    python -m benchmarks.e2e compare BASE.json NEW.json

``run`` measures each workload in a fresh subprocess, prints one row
per workload with every metric by name and unit, and exits non-zero
when a correctness check fails.  With a single ``--workload`` its last
stdout line is the JSON result object of the benchmark contract:
end-to-end metrics untraced, per-layer metrics with ``--trace``.
``--out`` appends the run to a JSON document that ``compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from . import harness
from .harness import HERE, ROOT, WORKLOADS

#: Fresh set-up samples per untraced run besides the measured one;
#: ``setup_s`` is the median of all of them.
EXTRA_SETUPS = 2
#: Seconds one workload process may take before it is killed.
CHILD_TIMEOUT_S = 150.0
RESULTS = HERE / "results"
WORK = HERE / ".work"


def _child_env() -> dict:
    paths = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def spawn_child(workload: str, seed: int, seconds: float, *, smoke: bool,
                setup_only: bool = False, trace_dir: Path | None = None,
                expected: Path | None = None) -> dict:
    """Run one workload process; returns its parsed result."""
    work_dir = WORK / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    work_dir.mkdir(parents=True)
    argv = [
        sys.executable, "-m", "benchmarks.e2e.child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--work-dir", str(work_dir), "--spawn-epoch", repr(time.time()),
    ]
    if smoke:
        argv.append("--smoke")
    if setup_only:
        argv.append("--setup-only")
    if trace_dir is not None:
        argv += ["--trace-dir", str(trace_dir)]
    if expected is not None:
        argv += ["--expected", str(expected)]
    # Own session: a timed-out child is killed with everything it started.
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload}: timed out after {CHILD_TIMEOUT_S:.0f}s") from None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, args) -> dict:
    """Measure one workload; returns the run record ``--out`` stores."""
    trace = bool(args.trace)
    trace_dir = None
    if trace:
        trace_dir = RESULTS / f"trace-{workload}-seed{args.seed}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    setups = []
    if not trace and not args.smoke:
        for _ in range(EXTRA_SETUPS):
            setups.append(spawn_child(workload, args.seed, args.seconds, smoke=False,
                                      setup_only=True)["setup_s"])
    out = spawn_child(workload, args.seed, args.seconds, smoke=args.smoke,
                      trace_dir=trace_dir, expected=Path(args.expected))
    setups.append(out["setup_s"])
    latencies = out["latencies"]
    pct, tail, count = harness.tail_percentile(latencies)
    values = {
        "setup_s": harness.median(setups),
        "latency_p50_s": harness.median(latencies),
        "throughput_per_s": out["throughput_per_s"],
        "speedup_x": out["speedup_x"],
    }
    if pct > 50.0:
        out["extras"][f"latency_p{pct:g}_s"] = (tail, "s")
    out["extras"]["latency_n"] = (count, "count")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in harness.E2E_METRICS}
    per_layer = {}
    if trace:
        for name, unit in harness.per_layer_metrics():
            span, _, field = name.rpartition(".")
            if name in out["layer"]:
                value = out["layer"][name]
            else:
                value = out["spans"].get(span, {}).get(field, 0)
            per_layer[name] = {"value": value, "unit": unit}
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "trace_dir": str(trace_dir) if trace_dir else None,
        "metrics": metrics,
        "per_layer": per_layer,
        "extras": {k: {"value": v, "unit": u} for k, (v, u) in out["extras"].items()},
        "correct": not out["errors"],
        "errors": out["errors"],
        "attempted": out["attempted"],
        "failed": out["failed"],
    }


def _fmt(name: str, cell: dict) -> str:
    return f"{name}={cell['value']:.6g} {cell['unit']}"


def print_row(record: dict, baseline: dict | None) -> None:
    """One line per workload: every metric with its unit."""
    label = "traced" if record["trace"] else "e2e"
    cells = record["per_layer"] if record["trace"] else record["metrics"]
    parts = [_fmt(n, c) for n, c in cells.items()]
    parts += [_fmt(n, c) for n, c in record["extras"].items()]
    parts.append(f"attempted={record['attempted']} failed={record['failed']}")
    print(f"{record['workload']:9} [{label}] " + "  ".join(parts))
    for error in record["errors"][:20]:
        print(f"  CHECK FAILED: {error}")
    if record["trace"]:
        print(f"  trace: {record['trace_dir']}/trace.json, {record['trace_dir']}/layers.txt")
        if baseline is not None:
            print_overhead(record, baseline)


def print_overhead(traced: dict, baseline: dict) -> None:
    """Tracing overhead: traced / untraced - 1 per comparable extra."""
    untraced = [r for r in baseline["runs"]
                if r["workload"] == traced["workload"] and not r["trace"]]
    if not untraced:
        return
    base = untraced[-1]["extras"]
    shown = [
        f"{name} {cell['value'] / base[name]['value'] - 1:+.1%}"
        for name, cell in traced["extras"].items()
        if name in base and cell["unit"] != "count" and base[name]["value"]
    ]
    print("  tracing overhead (traced / untraced - 1): " + ", ".join(shown))


def _append(path: Path, fingerprint: dict, records: list[dict]) -> None:
    document = {"fingerprint": fingerprint, "runs": []}
    if path.exists():
        document = json.loads(path.read_text())
        if document["fingerprint"]["kernel_backend"] != fingerprint["kernel_backend"]:
            raise SystemExit(f"{path} holds runs of another kernel backend")
    document["runs"].extend(records)
    path.write_text(json.dumps(document, indent=1) + "\n")


def cmd_run(args) -> int:
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    fingerprint = harness.fingerprint()
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else None
    records = []
    for workload in workloads:
        try:
            record = run_workload(workload, args)
        except RuntimeError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        records.append(record)
        print_row(record, baseline)
    if args.out:
        _append(Path(args.out), fingerprint, records)
    if len(records) == 1:
        record = records[0]
        metrics = record["per_layer"] if record["trace"] else record["metrics"]
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }))
    return 0 if all(r["correct"] for r in records) else 1


def cmd_compare(args) -> int:
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    try:
        rows = harness.compare_runs(base, new, harness.load_benchmark_spec())
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for row in rows:
        print(
            f"{row['workload']:9} {row['metric']:17} base {row['base']:.6g} "
            f"(spread {row['base_spread']:.1%})  new {row['new']:.6g} "
            f"(spread {row['new_spread']:.1%}) {row['unit']}  "
            f"bound {row['bound']:.0%}: {row['verdict']}"
        )
    return 1 if any(row["verdict"] == harness.WORSE for row in rows) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="measure workloads")
    p.add_argument("--workload", choices=WORKLOADS, default=None,
                   help="one workload (default: all four)")
    p.add_argument("--seed", type=int, default=0, help="input seed")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measured seconds per workload")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="traced run: per-layer metrics, trace.json, layers.txt")
    p.add_argument("--out", default=None, help="append the runs to this JSON file")
    p.add_argument("--baseline", default=None,
                   help="untraced --out file; a traced run prints its overhead")
    p.add_argument("--expected", default=str(HERE / "expected_seed0.json"),
                   help="seed-0 pipeline reference results")
    p.add_argument("--smoke", action="store_true",
                   help="toy sizes, one set-up: checks the plumbing only")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("compare", help="verdicts of NEW against BASE")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the exit code."""
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return args.func(args)
