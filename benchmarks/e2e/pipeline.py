"""Workload ``pipeline``: the paper's own flow, run cold.

For every Table II cell (network x {cpu, gpgpu}) one operation profiles
the network, runs QS-DNN at the auto budget, runs Random Search and
the single-library baselines at the same budget, and deploys the best
schedule.  It is the only workload that exercises profiling, the
board-side engine builds, the baselines and deployment, and it carries
the paper's quality numbers (45x over Vanilla on CPU, about 2x over the
best single library on GPGPU, better than Random Search).

Record ``expected_seed0.json`` from a commit whose results are the
reference::

    PYTHONPATH=src python -m benchmarks.e2e.pipeline --record benchmarks/e2e/expected_seed0.json
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro import baselines
from repro.analysis.speedup import auto_episodes
from repro.backends.registry import Mode
from repro.core.config import SearchConfig
from repro.core.search import QSDNNSearch
from repro.engine.optimizer import InferenceEngineOptimizer
from repro.hw import jetson_tx2
from repro.zoo import TABLE2_NETWORKS, build_network

from .harness import best_of_rounds, geomean, median, rounds_for, timed_rounds

MODES = ("cpu", "gpgpu")
CELLS = [(network, mode) for network in TABLE2_NETWORKS for mode in MODES]
SMOKE_CELLS = [("lenet5", mode) for mode in MODES]
#: A deployed schedule may differ from its LUT price by measurement
#: noise only.
MAX_DEPLOY_GAP = 0.02
#: Seconds one 22-cell pass takes on the reference host (sizes the run).
NOMINAL_PASS_S = 5.0


def run_cell(network: str, mode: str, seed: int, platform) -> dict:
    """Profile -> search -> baselines -> deploy for one cell."""
    started = time.perf_counter()
    optimizer = InferenceEngineOptimizer(
        build_network(network), platform, mode=Mode(mode), seed=seed
    )
    lut = optimizer.profile()
    episodes = auto_episodes(len(lut.layers))
    rl = QSDNNSearch(lut, SearchConfig(episodes=episodes, seed=seed)).run()
    rs = baselines.random_search(lut, episodes=episodes, seed=seed)
    libraries = baselines.single_library_results(lut)
    deployed = optimizer.deploy(rl.schedule())
    wall = time.perf_counter() - started
    engine = lut.engine()
    return {
        "cell": f"{network}/{mode}",
        "mode": mode,
        "wall_s": wall,
        "best_ms": rl.best_ms,
        "priced_ms": engine.price(engine.choices_of(rl.best_assignments)),
        "vanilla_ms": next(r.total_ms for r in libraries if r.library == "vanilla"),
        "bsl_ms": next(r.total_ms for r in libraries if r.library != "vanilla"),
        "rs_ms": rs.best_ms,
        "deploy_ms": deployed.total_ms,
    }


def quality(cells: list[dict]) -> dict:
    """The paper's quality numbers over one pass's cells."""
    cpu = [c for c in cells if c["mode"] == "cpu"]
    gpgpu = [c for c in cells if c["mode"] == "gpgpu"]
    return {
        "cpu_speedup_vs_vanilla_x": geomean(c["vanilla_ms"] / c["best_ms"] for c in cpu),
        "gpgpu_speedup_vs_bsl_x": geomean(c["bsl_ms"] / c["best_ms"] for c in gpgpu),
        "rl_vs_rs_x": geomean(c["rs_ms"] / c["best_ms"] for c in cells),
    }


def expected_errors(cells: list[dict], expected: dict) -> list[str]:
    """Mismatches against the recorded seed-0 reference (bitwise)."""
    errors = []
    for cell in cells:
        want = expected["cells"].get(cell["cell"])
        if want != cell["best_ms"]:
            errors.append(f"{cell['cell']}: best_ms {cell['best_ms']!r} != expected {want!r}")
    if len(cells) == len(expected["cells"]):
        for name, value in quality(cells).items():
            if value != expected[name]:
                errors.append(f"{name} {value!r} != expected {expected[name]!r}")
    return errors


def run(ctx) -> dict:
    """Measure the workload; see ``child.run_workload`` for the result."""
    platform = jetson_tx2()
    cells = SMOKE_CELLS if ctx.smoke else CELLS
    setup_s = time.time() - ctx.spawn_epoch
    if ctx.setup_only:
        return {"setup_s": setup_s}

    def one_pass(_index):
        return [run_cell(network, mode, ctx.seed, platform) for network, mode in cells]

    passes = 1 if ctx.smoke else rounds_for(ctx.seconds, NOMINAL_PASS_S)
    rounds = timed_rounds(one_pass, passes, warmup=0 if ctx.smoke else 1)
    wall_s = time.perf_counter() - ctx.started
    measured = [cell for _, passed in rounds for cell in passed]
    first = rounds[0][1]

    errors = []
    for cell in measured:
        if cell["priced_ms"] != cell["best_ms"]:
            errors.append(f"{cell['cell']}: CostEngine.price {cell['priced_ms']!r} != best_ms")
        gap = abs(cell["deploy_ms"] - cell["best_ms"]) / cell["best_ms"]
        if gap > MAX_DEPLOY_GAP:
            errors.append(f"{cell['cell']}: deploy gap {gap:.2%} > {MAX_DEPLOY_GAP:.0%}")
    for _, passed in rounds[1:]:
        if [c["best_ms"] for c in passed] != [c["best_ms"] for c in first]:
            errors.append("passes disagree on best_ms (non-deterministic search)")
    if ctx.seed == 0 and ctx.expected is not None:
        errors += expected_errors(first, json.loads(Path(ctx.expected).read_text()))

    cell_times: dict[str, list[float]] = {}
    for cell in measured:
        cell_times.setdefault(cell["cell"], []).append(cell["wall_s"])
    best = best_of_rounds(cell_times)
    pass_s = [wall for wall, _ in rounds]
    extras = {"pipeline_s": (median(pass_s), "s"), "passes": (len(rounds), "count")}
    extras.update({name: (value, "x") for name, value in quality(first).items()})
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies": list(best.values()),
        "throughput_per_s": len(best) / sum(best.values()),
        "speedup_x": geomean(c["vanilla_ms"] / c["best_ms"] for c in first),
        "layer": {
            "engine.optimizer.deploy_gap_max": max(
                abs(c["deploy_ms"] - c["best_ms"]) / c["best_ms"] for c in measured
            ),
        },
        "extras": extras,
        "attempted": len(measured),
        "failed": len(errors),
        "errors": errors,
    }


def record(path: str) -> None:
    """Write the seed-0 reference: every cell's best_ms and the quality
    geometric means."""
    cells = [run_cell(network, mode, 0, jetson_tx2()) for network, mode in CELLS]
    body = {"seed": 0, "cells": {c["cell"]: c["best_ms"] for c in cells}}
    body.update(quality(cells))
    Path(path).write_text(json.dumps(body, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"] or len(sys.argv) != 3:
        sys.exit("usage: python -m benchmarks.e2e.pipeline --record PATH")
    record(sys.argv[2])
