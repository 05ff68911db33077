"""E10 — MobileNet width-multiplier sweep (architecture-side ablation).

MobileNet-v1 ships reduced variants (alpha = 0.75 / 0.5 / 0.25).  The
search must keep winning as the network shrinks — and the *structure* of
the win should shift: thinner layers do less compute per transfer, so
the learned schedules progressively retreat from the GPU, the same
mechanism that makes LeNet-5 go pure-CPU.
"""

from __future__ import annotations

from repro import Mode, jetson_tx2
from repro.backends import gpgpu_space
from repro.baselines import best_single_library, pbqp_solve
from repro.engine import InferenceEngineOptimizer
from repro.hw.processor import ProcessorKind
from repro.utils.tables import AsciiTable
from repro.zoo.mobilenet import mobilenet_v1

from benchmarks.conftest import SEED

ALPHAS = [1.0, 0.75, 0.5, 0.25]


def test_width_multiplier_sweep(benchmark, tx2, emit):
    def run():
        rows = []
        for alpha in ALPHAS:
            graph = mobilenet_v1(width_multiplier=alpha)
            optimizer = InferenceEngineOptimizer(
                graph, tx2, mode=Mode.GPGPU, seed=SEED
            )
            lut = optimizer.profile()
            optimum = pbqp_solve(lut)
            bsl = best_single_library(lut)
            gpu_layers = sum(
                1
                for uid in optimum.best_assignments.values()
                if lut.meta[uid].processor is ProcessorKind.GPU
            )
            rows.append((alpha, optimum.best_ms, bsl.total_ms, gpu_layers,
                         len(lut.layers)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = AsciiTable(
        ["alpha", "optimum (ms)", "BSL (ms)", "OPT vs BSL", "GPU layers"],
        title="E10 | MobileNet-v1 width multipliers, GPGPU mode",
    )
    for alpha, opt_ms, bsl_ms, gpu_layers, total in rows:
        table.add_row(
            [f"{alpha:g}", f"{opt_ms:.2f}", f"{bsl_ms:.2f}",
             f"{bsl_ms / opt_ms:.2f}x", f"{gpu_layers}/{total}"]
        )
    emit("width_multiplier", table.render())

    # Latency decreases monotonically with alpha.
    latencies = [r[1] for r in rows]
    assert all(a > b for a, b in zip(latencies, latencies[1:]))
    # Per-layer selection keeps beating the single best library.
    assert all(r[2] >= r[1] * 0.999 for r in rows)
    # Thinner variants shift work off the GPU.
    assert rows[-1][3] < rows[0][3]
