"""Tests of the end-to-end benchmark itself (statistics, generators,
metric catalogue, compare verdicts, correctness gate, smoke runs)."""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys

import pytest

from . import harness, loadgen
from .harness import ROOT


def _run(*args: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


# -- statistics ----------------------------------------------------------------


def test_quartiles_and_spread_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert harness.quartiles(values) == (q1, q2, q3)
    assert harness.spread(values) == pytest.approx((q3 - q1) / q2)
    assert harness.spread([7.0]) == 0.0


@pytest.mark.parametrize(
    "n, pct",
    [(15, 50.0), (19, 50.0), (20, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (3000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    got_pct, value, count = harness.tail_percentile(range(n))
    assert (got_pct, count) == (pct, n)
    assert value == harness.nearest_rank(list(range(n)), pct)
    if pct != 50.0:
        assert sum(1 for v in range(n) if v > value) >= harness.MIN_BEYOND


def test_geomean_rounds_and_best_of_rounds():
    assert harness.geomean([2.0, 8.0]) == pytest.approx(4.0)
    calls = []
    rounds = harness.timed_rounds(calls.append, 3, warmup=2)
    assert calls == [-1, -2, 0, 1, 2] and len(rounds) == 3
    assert harness.rounds_for(20.0, 5.0) == 4 and harness.rounds_for(1.0, 5.0) == 1
    assert harness.best_of_rounds({"a": [3.0, 1.0, 2.0]}) == {"a": 1.0}


# -- generators ----------------------------------------------------------------


def test_arrival_schedule_is_seeded():
    a = loadgen.arrival_schedule(3, 150.0, 5.0)
    assert a == loadgen.arrival_schedule(3, 150.0, 5.0)
    assert a != loadgen.arrival_schedule(4, 150.0, 5.0)
    assert all(0 < x < y < 5.0 for x, y in zip(a, a[1:]))
    assert 600 < len(a) < 900


def test_campaign_mix_is_seeded_with_exact_quotas():
    mix = loadgen.campaign_mix(5, 300)
    assert mix == loadgen.campaign_mix(5, 300)
    assert mix != loadgen.campaign_mix(6, 300)
    counts = {kind: sum(e["kind"] == kind for e in mix) for kind in loadgen.MIX_BLOCK}
    assert counts == {"search": 180, "multi-seed": 45, "warm": 30, "resubmit": 45}
    for start in range(0, 300, 20):
        block = mix[start:start + 20]
        assert {k: sum(e["kind"] == k for e in block) for k in loadgen.MIX_BLOCK} == (
            loadgen.MIX_BLOCK
        )
    keys = [json.dumps(e["body"], sort_keys=True) for e in mix if "body" in e]
    assert len(keys) == len(set(keys))
    assert {e["body"]["seed"] for e in mix if "body" in e} == {10, 11}
    for i, entry in enumerate(mix):
        target = entry.get("target")
        if target is not None:
            assert target < i and target % 2 == i % 2 and mix[target]["kind"] != "resubmit"


# -- metric catalogue ------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_matches_emitted_names():
    spec = harness.load_benchmark_spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == harness.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [
        w["name"] for w in spec["workloads"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


# -- compare -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "base, new, better, verdict",
    [
        ([1.0, 1.0, 1.0], [1.02, 1.02, 1.02], "lower", harness.WITHIN),
        ([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], "lower", harness.WORSE),
        ([1.0, 1.0, 1.0], [0.8, 0.8, 0.8], "lower", harness.BETTER),
        ([1.0, 1.0, 1.0], [0.8, 0.8, 0.8], "higher", harness.WORSE),
        ([1.0, 2.0, 1.0, 2.0], [1.5, 1.5, 1.5], "lower", harness.UNRESOLVED),
        ([2.0, 3.0, 2.0, 3.0], [1.0, 1.1, 1.0], "lower", harness.BETTER),
    ],
)
def test_verdicts(base, new, better, verdict):
    assert harness.verdict(base, new, better, 0.1) == verdict


def _doc(backend, values):
    return {
        "fingerprint": {"kernel_backend": backend},
        "runs": [
            {"workload": "search", "trace": False,
             "metrics": {"setup_s": {"value": v}, "speedup_x": {"value": 10.0}}}
            for v in values
        ],
    }


def test_compare_runs_rows_and_backend_guard():
    spec = {"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "speedup_x", "unit": "x", "better": "higher", "bound": 0.05},
    ]}
    rows = harness.compare_runs(_doc("reference", [1.0, 1.0]), _doc("reference", [2.0, 2.0]), spec)
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == [
        ("search", "setup_s", harness.WORSE),
        ("search", "speedup_x", harness.WITHIN),
    ]
    with pytest.raises(ValueError):
        harness.compare_runs(_doc("reference", [1.0]), _doc("numba", [1.0]), spec)


# -- the run command ---------------------------------------------------------------


def test_corrupted_expected_results_fail_the_run(tmp_path):
    expected = json.loads((harness.HERE / "expected_seed0.json").read_text())
    expected["cells"]["lenet5/cpu"] *= 1.0 + 1e-12
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    done = _run("run", "--workload", "pipeline", "--smoke", "--seconds", "0",
                "--expected", str(path))
    assert done.returncode == 1, done.stdout + done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False


def test_smoke_run_of_every_workload(tmp_path):
    out = tmp_path / "runs.json"
    done = _run("run", "--smoke", "--seconds", "0", "--out", str(out), timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    runs = json.loads(out.read_text())["runs"]
    assert [r["workload"] for r in runs] == list(harness.WORKLOADS)
    e2e = [name for name, _ in harness.E2E_METRICS]
    for run in runs:
        assert run["correct"] and run["attempted"] >= 1, run
        assert list(run["metrics"]) == e2e
        assert all(cell["value"] > 0 for cell in run["metrics"].values()), run
        assert f"{run['workload']:9} [e2e] setup_s=" in done.stdout
