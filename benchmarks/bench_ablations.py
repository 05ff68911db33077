"""E8 — ablations of QS-DNN's design choices (paper §IV-C / §V-B).

The paper fixes: reward shaping on, experience replay (buffer 128),
lr = 0.05, gamma = 0.9, and the 50 %-exploration epsilon schedule.  Each
bench toggles one choice on a fixed LUT and reports the effect on the
final greedy policy and the best configuration found.
"""

from __future__ import annotations

import pytest

from repro import Mode
from repro.analysis._cache import cached_lut
from repro.core import EpsilonSchedule, QSDNNSearch, SearchConfig
from repro.utils.rng import spawn_seed
from repro.utils.stats import mean_and_ci
from repro.utils.tables import AsciiTable

from benchmarks.conftest import SEED

NETWORK = "googlenet"  # branchy, large space: ablations actually bite
EPISODES = 600
RUNS = 3


def _mean_best(lut, runs: int, **config_overrides) -> tuple[float, float]:
    """Mean best over seeds, *without* the polish step — the ablations
    measure the RL design choices themselves (Algorithm 1 raw output)."""
    scores = []
    for run in range(runs):
        config = SearchConfig(
            episodes=EPISODES,
            seed=spawn_seed(SEED, "ablation", run),
            track_curve=False,
            polish_sweeps=0,
            **config_overrides,
        )
        scores.append(QSDNNSearch(lut, config).run().best_ms)
    return mean_and_ci(scores)


def test_ablation_reward_shaping(benchmark, tx2, emit):
    """Shaping (per-layer rewards) vs terminal-only reward."""
    lut = cached_lut(NETWORK, Mode.GPGPU, tx2, seed=SEED)

    def run():
        shaped = _mean_best(lut, RUNS, reward_shaping=True)
        flat = _mean_best(lut, RUNS, reward_shaping=False)
        return shaped, flat

    (shaped, flat) = benchmark.pedantic(run, rounds=1, iterations=1)
    table = AsciiTable(
        ["variant", "mean best (ms)", "+-"],
        title=f"E8 | reward shaping ablation on {NETWORK} ({EPISODES} eps)",
    )
    table.add_row(["shaped (paper)", f"{shaped[0]:.2f}", f"{shaped[1]:.2f}"])
    table.add_row(["terminal-only", f"{flat[0]:.2f}", f"{flat[1]:.2f}"])
    emit("ablation_shaping", table.render())
    # Paper: shaping adopted "for better convergence".
    assert shaped[0] <= flat[0] * 1.10


def test_ablation_experience_replay(benchmark, tx2, emit):
    """Replay on (128) vs off."""
    lut = cached_lut(NETWORK, Mode.GPGPU, tx2, seed=SEED)

    def run():
        on = _mean_best(lut, RUNS, replay_enabled=True)
        off = _mean_best(lut, RUNS, replay_enabled=False)
        return on, off

    on, off = benchmark.pedantic(run, rounds=1, iterations=1)
    table = AsciiTable(
        ["variant", "mean best (ms)", "+-"],
        title=f"E8 | experience replay ablation on {NETWORK}",
    )
    table.add_row(["replay 128 (paper)", f"{on[0]:.2f}", f"{on[1]:.2f}"])
    table.add_row(["no replay", f"{off[0]:.2f}", f"{off[1]:.2f}"])
    emit("ablation_replay", table.render())
    assert on[0] <= off[0] * 1.15


def test_ablation_epsilon_schedule(benchmark, tx2, emit):
    """Paper schedule vs linear decay vs constant epsilon."""
    lut = cached_lut(NETWORK, Mode.GPGPU, tx2, seed=SEED)

    def run():
        out = {}
        out["paper"] = _mean_best(lut, RUNS)
        out["linear"] = _mean_best(
            lut, RUNS, epsilon=EpsilonSchedule.linear(EPISODES)
        )
        out["constant 0.1"] = _mean_best(
            lut, RUNS, epsilon=EpsilonSchedule.constant(0.1, EPISODES)
        )
        out["constant 1.0 (pure RS)"] = _mean_best(
            lut, RUNS, epsilon=EpsilonSchedule.constant(1.0, EPISODES)
        )
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    table = AsciiTable(
        ["schedule", "mean best (ms)", "+-"],
        title=f"E8 | epsilon schedule ablation on {NETWORK}",
    )
    for name, (mean, ci) in results.items():
        table.add_row([name, f"{mean:.2f}", f"{ci:.2f}"])
    emit("ablation_epsilon", table.render())
    # A pure-exploration agent is just random search: markedly worse.
    assert results["paper"][0] < results["constant 1.0 (pure RS)"][0]


@pytest.mark.parametrize("learning_rate", [0.01, 0.05, 0.2, 0.5])
def test_ablation_learning_rate(benchmark, learning_rate, tx2):
    """lr sweep around the paper's 0.05 — all should converge sanely."""
    lut = cached_lut(NETWORK, Mode.GPGPU, tx2, seed=SEED)

    def run():
        return _mean_best(lut, 2, learning_rate=learning_rate)

    mean, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    from repro.baselines import pbqp_solve

    optimum = pbqp_solve(lut).best_ms
    assert mean <= optimum * 2.5


@pytest.mark.parametrize("discount", [0.5, 0.9, 0.99])
def test_ablation_discount(benchmark, discount, tx2):
    """gamma sweep around the paper's 0.9."""
    lut = cached_lut(NETWORK, Mode.GPGPU, tx2, seed=SEED)

    def run():
        return _mean_best(lut, 2, discount=discount)

    mean, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    from repro.baselines import pbqp_solve

    assert mean <= pbqp_solve(lut).best_ms * 2.5
