"""E2 — Table II, GPGPU mode (paper §VI-A).

Regenerates the right half of Table II on the heterogeneous TX-2 (CPU
libraries + cuDNN + cuBLAS, with transfer penalties).  Checks the
paper's headline claims:

* ~2x mean speedup over the best vendor library,
* > 1.4x on MobileNet (ArmCL depth-wise + cuDNN conv mixing),
* LeNet-5's learned schedule is pure CPU,
* QS-DNN clearly outperforms RS at the same 1000-episode budget.
"""

from __future__ import annotations

import pytest

from repro import Mode
from repro.analysis._cache import cached_lut, cached_table2_row
from repro.analysis.speedup import render_table2
from repro.core import QSDNNSearch, SearchConfig
from repro.hw.processor import ProcessorKind
from repro.utils.stats import geometric_mean
from repro.zoo import TABLE2_NETWORKS

from benchmarks.conftest import EPISODES, SEED


@pytest.mark.parametrize("network", TABLE2_NETWORKS)
def test_qsdnn_search_gpgpu(benchmark, network, tx2):
    """Benchmark the 1000-episode GPGPU-mode search per network."""
    lut = cached_lut(network, Mode.GPGPU, tx2, seed=SEED)

    def run_search():
        config = SearchConfig(episodes=EPISODES, seed=SEED, track_curve=False)
        return QSDNNSearch(lut, config).run()

    result = benchmark.pedantic(run_search, rounds=1, iterations=1)
    assert result.best_ms > 0


def test_table2_gpgpu_rows(benchmark, tx2, emit):
    """Assemble and print the full GPGPU half of Table II."""

    def build_rows():
        return [
            cached_table2_row(n, Mode.GPGPU, tx2, episodes=None, seed=SEED)
            for n in TABLE2_NETWORKS
        ]

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    mean_vs_bsl = geometric_mean([row.qsdnn_vs_bsl for row in rows])
    emit(
        "table2_gpgpu",
        render_table2(
            rows,
            title=(
                "Table II (GPGPU mode) - speedups over Vanilla, TX-2 "
                f"CPU+GPU, per-network budget (>=1000 episodes, RS gets "
                f"the same), seed {SEED}"
            ),
        )
        + f"\ngeomean QS-DNN vs BSL: {mean_vs_bsl:.2f}x (paper: ~2x)",
    )

    by_net = {row.network: row for row in rows}

    # Paper §VI-A claims (shape):
    for row in rows:
        assert row.qsdnn_vs_bsl >= 0.99, row.network
    assert 1.5 <= mean_vs_bsl <= 3.0, f"geomean {mean_vs_bsl:.2f}x vs paper ~2x"
    assert by_net["mobilenet_v1"].qsdnn_vs_bsl >= 1.4
    # AlexNet / VGG19: cuDNN lacks FC, so QS-DNN wins big.
    assert by_net["alexnet"].qsdnn_vs_bsl >= 3.0
    assert by_net["vgg19"].qsdnn_vs_bsl >= 3.0
    # RL vs RS: clear wins, largest on the big design spaces (§VI-B: up to 15x).
    assert max(row.rl_vs_rs for row in rows) >= 8.0


def test_lenet_gpgpu_schedule_is_pure_cpu(benchmark, tx2, emit):
    """Paper: LeNet-5's fastest GPGPU configuration uses no GPU at all."""
    lut = cached_lut("lenet5", Mode.GPGPU, tx2, seed=SEED)

    def run_search():
        config = SearchConfig(episodes=EPISODES, seed=SEED, track_curve=False)
        return QSDNNSearch(lut, config).run()

    result = benchmark.pedantic(run_search, rounds=1, iterations=1)
    processors = {
        str(lut.meta[u].processor) for u in result.best_assignments.values()
    }
    emit(
        "lenet_pure_cpu",
        "LeNet-5 GPGPU-mode learned schedule processors: "
        f"{sorted(processors)} (paper: pure CPU wins - transfers would "
        "dominate such small layers)",
    )
    assert processors == {str(ProcessorKind.CPU)}


def test_win_matrix_mobilenet(benchmark, tx2, emit):
    """Per-layer-kind library wins — the mechanism behind §VI-A."""
    from repro.analysis.win_matrix import render_win_matrix, win_matrix
    from repro.baselines import pbqp_solve
    from repro.zoo import build_network

    lut = cached_lut("mobilenet_v1", Mode.GPGPU, tx2, seed=SEED)
    graph = build_network("mobilenet_v1")

    def run():
        optimum = pbqp_solve(lut)
        return win_matrix(lut, optimum.best_assignments, graph)

    matrix = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "win_matrix_mobilenet",
        render_win_matrix(
            matrix,
            title="MobileNet-v1 GPGPU optimum: wins per (layer kind, library)",
        ),
    )
    # ArmCL owns depth-wise; FC goes to cuBLAS.
    assert matrix["depthwise_conv"].get("armcl", 0) >= 7
    assert matrix["fully_connected"] == {"cublas": 1}


def test_mobilenet_library_mix(benchmark, tx2, emit):
    """Paper: MobileNet mixes ArmCL depth-wise + cuDNN conv + CPU-side
    ReLU/B-Norm to avoid costly extra copies to GPU."""
    lut = cached_lut("mobilenet_v1", Mode.GPGPU, tx2, seed=SEED)

    def run_search():
        config = SearchConfig(episodes=EPISODES, seed=SEED, track_curve=False)
        return QSDNNSearch(lut, config).run()

    result = benchmark.pedantic(run_search, rounds=1, iterations=1)
    libraries = {}
    for layer, uid in result.best_assignments.items():
        libraries.setdefault(lut.meta[uid].library, []).append(layer)
    summary = "\n".join(
        f"  {lib:8s} {len(layers):3d} layers" for lib, layers in
        sorted(libraries.items(), key=lambda kv: -len(kv[1]))
    )
    dw_on_armcl = sum(
        1
        for layer, uid in result.best_assignments.items()
        if layer.endswith("_dw") and lut.meta[uid].library == "armcl"
    )
    emit(
        "mobilenet_mix",
        "MobileNet-v1 GPGPU learned schedule library mix:\n" + summary
        + f"\n  depth-wise layers on ArmCL: {dw_on_armcl}/13",
    )
    assert len(libraries) >= 3, "expected a heterogeneous mix of libraries"
    assert dw_on_armcl >= 5, "expected ArmCL to win a majority of DW layers"
