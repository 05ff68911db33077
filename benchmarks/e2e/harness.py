"""Shared measurement harness: metric catalogue, statistics, rounds,
host fingerprint and the ``compare`` verdicts.

Every number the benchmark reports goes through this module, so the
four workloads agree on what a median, a spread and a tail percentile
are.  Nothing here imports the system under test except
:func:`fingerprint`, which asks it which kernel backend resolves.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The benchmark's directory and the checkout root it runs from.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

WORKLOADS = ("pipeline", "search", "flood", "campaign")

#: End-to-end metrics, reported by every workload (``--trace 0`` runs).
#: Bounds live in BENCHMARK.json; the test suite keeps the two in step.
#: The tail latency is printed but not gated: on the shared reference
#: host its run-to-run spread exceeds the largest allowed bound.
E2E_METRICS = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("throughput_per_s", "1/s"),
    ("speedup_x", "x"),
)

#: Every span the traced runs record: ``<layer>.<callable>``.  Each
#: yields a ``.self_share`` and a ``.calls`` per-layer metric.
SPAN_NAMES = (
    "engine.profiler.profile",
    "engine.executor.run",
    "engine.pricing.from_model",
    "engine.pricing.from_indexed",
    "engine.pricing.layer_costs",
    "engine.pricing.layer_costs_batch",
    "core.kernels.rollout",
    "core.kernels.learn",
    "core.kernels.draw_replay_order",
    "core.search.run",
    "core.multi_seed.run",
    "core.polish.coordinate_descent",
    "baselines.random_search",
    "baselines.single_library_results",
    "engine.optimizer.deploy",
    "core.checkpoint.build_checkpoint",
    "core.checkpoint.seed_snapshot",
    "core.checkpoint.encode_checkpoint",
    "runtime.service.submit",
    "runtime.service.lease_batch",
    "runtime.service.finish_remote_batch",
    "runtime.store.get",
    "runtime.store.put",
    "runtime.store.put_many",
    "runtime.store.flush_timed",
    "runtime.store.encode_payload",
    "runtime.service.execute_job",
    "runtime.worker.execute_job",
    "runtime.lutcache.load_or_profile_lut",
    "core.priors.resolve_prior_spec",
    "runtime.client.heartbeat",
    "runtime.client.submit_results",
)

#: Per-layer metrics read from outside the spans (record timestamps,
#: ``/metrics``, the load generator).  All are shares, ratios or counts
#: so a workload that never touches a layer reports a true 0.
DERIVED_LAYER_METRICS = (
    ("core.checkpoint.overhead_frac", "fraction"),
    ("engine.optimizer.deploy_gap_max", "fraction"),
    ("runtime.service.queue_wait_share", "fraction"),
    ("runtime.service.finish_overhead_share", "fraction"),
    ("runtime.service.lease_batch_jobs", "count"),
    ("runtime.service.requeued", "count"),
    ("runtime.service.refused", "count"),
    ("runtime.worker.busy_frac", "fraction"),
    ("runtime.lutcache.hit_ratio", "ratio"),
    ("runtime.store.hit_ratio", "ratio"),
    ("runtime.store.flushes", "count"),
    ("loadgen.lag_p99_frac", "fraction"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for span in SPAN_NAMES:
        out.append((f"{span}.self_share", "fraction"))
        out.append((f"{span}.calls", "count"))
    out.extend(DERIVED_LAYER_METRICS)
    return out


def load_benchmark_spec() -> dict:
    """The parsed BENCHMARK.json (bounds and directions for ``compare``)."""
    return json.loads(BENCHMARK_JSON.read_text())


# -- statistics --------------------------------------------------------------

#: Tail percentiles tried from the top; a timing is reported at the
#: highest one that still has at least ``MIN_BEYOND`` samples past it.
PERCENTILE_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank; the tolerance keeps 99.9% of 10000 at 9990."""
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def nearest_rank(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail_percentile(values) -> tuple[float, float, int]:
    """``(pct, value, n)``: the highest ladder percentile with at least
    ``MIN_BEYOND`` samples beyond it (the median when none has)."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in PERCENTILE_LADDER:
        if n - _rank(pct, n) >= MIN_BEYOND:
            return pct, nearest_rank(ordered, pct), n
    return 50.0, nearest_rank(ordered, 50.0), n


def timing_summary(values) -> dict:
    """Median, the supported tail percentile and the sample count."""
    if not values:
        return {"n": 0}
    pct, value, n = tail_percentile(values)
    return {"median": median(values), "pct": pct, "tail": value, "n": n}


def geomean(values) -> float:
    """Geometric mean of positive numbers."""
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def rounds_for(seconds: float, nominal_round_s: float) -> int:
    """Measured rounds that fill ``seconds`` at the nominal round time.

    The count depends on the requested time only, never on how fast
    the code under test runs, so two commits do the same work.
    """
    return max(1, round(seconds / nominal_round_s))


def timed_rounds(body, rounds: int, warmup: int = 1):
    """Run ``body(-1), ...`` ``warmup`` times unmeasured, then
    ``body(0) .. body(rounds - 1)``; returns ``[(wall_s, result), ...]``
    for the measured rounds."""
    for index in range(warmup):
        body(-1 - index)
    measured = []
    for index in range(rounds):
        t0 = time.perf_counter()
        result = body(index)
        measured.append((time.perf_counter() - t0, result))
    return measured


def best_of_rounds(times: dict) -> dict:
    """Each operation's fastest time over the rounds.

    ``times`` maps an operation to its per-round wall times.  On a
    shared host the slower repeats measure other tenants, not the code
    (the reasoning behind ``timeit``'s advice to take the minimum).
    """
    return {op: min(values) for op, values in times.items()}


# -- host fingerprint --------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_head() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint() -> dict:
    """What the numbers depend on: host, interpreter and kernel backend."""
    import numpy

    from repro.core.kernels import numba_available, resolve_backend

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba": numba_available(),
        "kernel_backend": resolve_backend("auto"),
        "git_head": _git_head(),
    }


# -- compare -----------------------------------------------------------------

BETTER, WORSE, WITHIN, UNRESOLVED = "better", "worse", "within bound", "unresolved"


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """Label one (workload, metric) pair of run sets.

    ``unresolved`` when either side's spread exceeds the bound, unless
    every new run beats every base run.  Otherwise the change in median
    decides: past the bound it is ``better`` or ``worse``.
    """
    sign = 1.0 if better == "lower" else -1.0
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if spread(base) > bound or spread(new) > bound:
        return BETTER if all_better else UNRESOLVED
    base_m, new_m = median(base), median(new)
    change = sign * (new_m - base_m) / abs(base_m) if base_m else 0.0
    if change > bound:
        return WORSE
    if change < -bound:
        return BETTER
    return WITHIN


def compare_runs(base: dict, new: dict, spec: dict) -> list[dict]:
    """Verdict rows for every (workload, E2E metric) both files hold.

    ``base``/``new`` are ``run --out`` documents.  Raises ValueError
    when their kernel backends differ: such runs measure different code.
    """
    backends = (
        base["fingerprint"]["kernel_backend"],
        new["fingerprint"]["kernel_backend"],
    )
    if backends[0] != backends[1]:
        raise ValueError(
            f"kernel backends differ ({backends[0]} vs {backends[1]}); "
            "refusing to compare"
        )
    rows = []
    for workload in WORKLOADS:
        base_runs = [r for r in base["runs"] if r["workload"] == workload and not r["trace"]]
        new_runs = [r for r in new["runs"] if r["workload"] == workload and not r["trace"]]
        if not base_runs or not new_runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in base_runs]
            b = [r["metrics"][name]["value"] for r in new_runs]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "base": median(a),
                    "new": median(b),
                    "base_spread": spread(a),
                    "new_spread": spread(b),
                    "bound": metric["bound"],
                    "verdict": verdict(a, b, metric["better"], metric["bound"]),
                }
            )
    return rows
