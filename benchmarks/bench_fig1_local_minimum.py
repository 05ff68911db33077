"""E5 — Fig. 1: the greedy local-minimum trap on a 3-layer network.

The paper's Fig. 1 shows an agent avoiding the path through the fastest
intermediate implementation (red) in favour of the globally fastest path
(blue).  We verify this twice:

* on a hand-built LUT where the trap provably exists, and
* on the real profiled toy network, where QS-DNN must match the
  exact optimum of the full design space.
"""

from __future__ import annotations

import sys

from repro import Mode
from repro.analysis._cache import cached_lut
from repro.baselines import greedy_per_layer, pbqp_solve
from repro.core import QSDNNSearch, SearchConfig
from repro.utils.tables import AsciiTable

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent.parent))
from tests.helpers import trap_lut  # noqa: E402

from benchmarks.conftest import SEED  # noqa: E402


def test_fig1_trap_lut(benchmark, emit):
    """QS-DNN escapes the local minimum greedy falls into."""
    lut = trap_lut()

    def run():
        return QSDNNSearch(lut, SearchConfig(episodes=200, seed=SEED)).run()

    rl = benchmark.pedantic(run, rounds=1, iterations=1)
    greedy = greedy_per_layer(lut)
    exact = pbqp_solve(lut)

    table = AsciiTable(
        ["method", "path", "total (ms)"],
        title="Fig.1 | 3-layer trap: greedy (red) vs learned (blue) path",
    )
    for name, result in (("greedy", greedy), ("QS-DNN", rl), ("optimal", exact)):
        path = " -> ".join(
            result.best_assignments[l] for l in ("l0", "l1", "l2")
        )
        table.add_row([name, path, f"{result.best_ms:.1f}"])
    emit("fig1_trap", table.render())

    assert greedy.best_assignments["l1"] == "prim1"  # the red path
    assert greedy.best_ms > exact.best_ms  # and it is a trap
    assert rl.best_ms == exact.best_ms  # QS-DNN takes the blue path
    assert rl.best_assignments == exact.best_assignments


def test_fig1_real_toy_network(benchmark, tx2, emit):
    """On the profiled toy net, QS-DNN matches the exact optimum."""
    lut = cached_lut("fig1_toy", Mode.GPGPU, tx2, seed=SEED)

    def run():
        return QSDNNSearch(lut, SearchConfig(episodes=400, seed=SEED)).run()

    rl = benchmark.pedantic(run, rounds=1, iterations=1)
    exact = pbqp_solve(lut)
    greedy = greedy_per_layer(lut)
    emit(
        "fig1_real_toy",
        (
            f"fig1_toy GPGPU: QS-DNN {rl.best_ms:.3f} ms == exact optimum "
            f"{exact.best_ms:.3f} ms (greedy-per-layer: {greedy.best_ms:.3f} ms)"
        ),
    )
    assert rl.best_ms <= exact.best_ms * 1.001
