"""Tests for the QS-DNN search engine (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.core import EpsilonSchedule, QSDNNSearch, SearchConfig
from repro.core.state import SearchState, describe_assignments
from repro.baselines import pbqp_solve
from repro.errors import ConfigError

from tests.helpers import enumerate_optimum, synthetic_chain_lut, trap_lut


class TestSearchConfig:
    def test_paper_defaults(self):
        cfg = SearchConfig()
        assert cfg.learning_rate == 0.05
        assert cfg.discount == 0.9
        assert cfg.replay_capacity == 128
        assert cfg.reward_shaping is True
        assert cfg.episodes == 1000

    def test_default_epsilon_is_paper_schedule(self):
        cfg = SearchConfig(episodes=1000)
        assert cfg.epsilon.epsilon_for(0) == 1.0
        assert cfg.epsilon.epsilon_for(999) == 0.0

    def test_mismatched_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            SearchConfig(episodes=100, epsilon=EpsilonSchedule.constant(0.5, 50))

    @pytest.mark.parametrize("field,value", [
        ("episodes", 0),
        ("learning_rate", 0.0),
        ("learning_rate", 1.5),
        ("discount", -0.1),
        ("replay_capacity", 0),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            SearchConfig(**{field: value})


class TestConvergence:
    def test_finds_optimum_on_small_synthetic(self):
        lut = synthetic_chain_lut(5, 4, seed=1)
        optimal = enumerate_optimum(lut)
        result = QSDNNSearch(lut, SearchConfig(episodes=600, seed=0)).run()
        assert result.best_ms == pytest.approx(optimal.best_ms, rel=1e-9)

    def test_matches_optimum_on_larger_chain(self):
        lut = synthetic_chain_lut(20, 6, seed=2)
        optimal = pbqp_solve(lut)
        result = QSDNNSearch(lut, SearchConfig(episodes=1500, seed=0)).run()
        assert result.best_ms <= optimal.best_ms * 1.05

    def test_avoids_fig1_trap(self):
        """The paper's Fig. 1: the greedy path is a local minimum."""
        lut = trap_lut()
        result = QSDNNSearch(lut, SearchConfig(episodes=200, seed=0)).run()
        assert result.best_assignments == {
            "l0": "prim0", "l1": "prim0", "l2": "prim0"
        }
        assert result.best_ms == pytest.approx(10.0)

    def test_greedy_policy_converges_to_best(self):
        lut = synthetic_chain_lut(5, 4, seed=3)
        result = QSDNNSearch(lut, SearchConfig(episodes=800, seed=0)).run()
        assert result.greedy_ms == pytest.approx(result.best_ms, rel=0.05)

    def test_learning_curve_trends_down(self):
        lut = synthetic_chain_lut(12, 6, seed=4)
        result = QSDNNSearch(lut, SearchConfig(episodes=1000, seed=0)).run()
        explore = result.curve_ms[:500]
        exploit = result.curve_ms[-50:]
        assert sum(exploit) / 50 < sum(explore) / 500

    def test_best_curve_monotone(self):
        lut = synthetic_chain_lut(8, 4, seed=5)
        result = QSDNNSearch(lut, SearchConfig(episodes=300, seed=0)).run()
        curve = result.best_curve
        assert all(a >= b for a, b in zip(curve, curve[1:]))


class TestDeterminism:
    def test_same_seed_same_result(self):
        lut = synthetic_chain_lut(8, 4, seed=6)
        a = QSDNNSearch(lut, SearchConfig(episodes=200, seed=11)).run()
        b = QSDNNSearch(lut, SearchConfig(episodes=200, seed=11)).run()
        assert a.best_ms == b.best_ms
        assert a.curve_ms == b.curve_ms
        assert a.best_assignments == b.best_assignments

    def test_different_seeds_explore_differently(self):
        lut = synthetic_chain_lut(8, 4, seed=6)
        a = QSDNNSearch(lut, SearchConfig(episodes=200, seed=1)).run()
        b = QSDNNSearch(lut, SearchConfig(episodes=200, seed=2)).run()
        assert a.curve_ms != b.curve_ms


class TestResult:
    def test_result_metadata(self):
        lut = synthetic_chain_lut(5, 3, seed=7)
        result = QSDNNSearch(lut, SearchConfig(episodes=100, seed=0)).run()
        assert result.method == "qs-dnn"
        assert result.episodes == 100
        assert len(result.curve_ms) == 100
        assert len(result.epsilon_trace) == 100
        assert result.wall_clock_s > 0

    def test_schedule_roundtrip(self):
        lut = synthetic_chain_lut(5, 3, seed=7)
        result = QSDNNSearch(lut, SearchConfig(episodes=100, seed=0)).run()
        sched = result.schedule()
        assert lut.schedule_time(sched.assignments) == pytest.approx(result.best_ms)

    def test_summary_mentions_method(self):
        lut = synthetic_chain_lut(5, 3, seed=7)
        result = QSDNNSearch(lut, SearchConfig(episodes=50, seed=0)).run()
        assert "qs-dnn" in result.summary()

    def test_track_curve_off(self):
        lut = synthetic_chain_lut(5, 3, seed=7)
        result = QSDNNSearch(
            lut, SearchConfig(episodes=50, seed=0, track_curve=False)
        ).run()
        assert result.curve_ms == []


class TestAblations:
    def test_reward_shaping_off_still_learns(self):
        lut = synthetic_chain_lut(6, 4, seed=8)
        optimal = pbqp_solve(lut).best_ms
        cfg = SearchConfig(episodes=800, seed=0, reward_shaping=False)
        result = QSDNNSearch(lut, cfg).run()
        assert result.best_ms <= optimal * 1.3

    def test_shaping_beats_no_shaping_on_average(self):
        """The paper adopted shaping 'for better convergence' (§IV-C)."""
        wins = 0
        for seed in range(6):
            lut = synthetic_chain_lut(15, 6, seed=100 + seed)
            shaped = QSDNNSearch(
                lut, SearchConfig(episodes=300, seed=seed)
            ).run()
            flat = QSDNNSearch(
                lut,
                SearchConfig(episodes=300, seed=seed, reward_shaping=False),
            ).run()
            if shaped.greedy_ms <= flat.greedy_ms:
                wins += 1
        assert wins >= 4

    def test_replay_off_runs(self):
        lut = synthetic_chain_lut(6, 4, seed=9)
        cfg = SearchConfig(episodes=200, seed=0, replay_enabled=False)
        result = QSDNNSearch(lut, cfg).run()
        assert result.best_ms > 0


class TestSearchState:
    def test_from_meta(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        meta = lut.meta["blas.gemm.im2col@openblas"]
        state = SearchState.from_meta("conv", 0, meta)
        assert state.library == "blas"
        assert state.blas == "openblas"
        assert state.processor == "cpu"
        assert "openblas" in str(state)

    def test_describe_assignments(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        assignments = {l: lut.candidates[l][0] for l in lut.layers}
        states = describe_assignments(lut, assignments, {})
        assert len(states) == len(lut.layers)
        assert [s.layer_depth for s in states] == list(range(len(lut.layers)))
