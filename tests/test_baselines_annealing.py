"""Tests for the simulated-annealing baseline."""

from __future__ import annotations

import pytest

from repro.baselines import pbqp_solve, random_search, simulated_annealing
from repro.errors import ConfigError

from tests.helpers import synthetic_chain_lut, trap_lut


class TestSimulatedAnnealing:
    def test_deterministic_per_seed(self):
        lut = synthetic_chain_lut(8, 4, seed=1)
        a = simulated_annealing(lut, episodes=100, seed=3)
        b = simulated_annealing(lut, episodes=100, seed=3)
        assert a.best_ms == b.best_ms
        assert a.best_assignments == b.best_assignments

    def test_best_matches_assignments(self):
        lut = synthetic_chain_lut(8, 4, seed=2)
        result = simulated_annealing(lut, episodes=150, seed=0)
        assert lut.schedule_time(result.best_assignments) == pytest.approx(
            result.best_ms
        )

    def test_beats_random_search_at_equal_budget(self):
        """Local moves + cooling should dominate blind sampling."""
        wins = 0
        for seed in range(5):
            lut = synthetic_chain_lut(15, 6, seed=50 + seed)
            sa = simulated_annealing(lut, episodes=300, seed=seed)
            rs = random_search(lut, episodes=300, seed=seed)
            if sa.best_ms <= rs.best_ms:
                wins += 1
        assert wins >= 4

    def test_never_beats_exact_optimum(self):
        for seed in range(5):
            lut = synthetic_chain_lut(10, 4, seed=seed)
            sa = simulated_annealing(lut, episodes=200, seed=seed)
            assert sa.best_ms >= pbqp_solve(lut).best_ms - 1e-9

    def test_near_optimal_on_trap(self):
        result = simulated_annealing(trap_lut(), episodes=300, seed=0)
        assert result.best_ms == pytest.approx(10.0)

    def test_curve_length(self):
        lut = synthetic_chain_lut(5, 3, seed=4)
        result = simulated_annealing(lut, episodes=40, seed=0)
        assert len(result.curve_ms) == 40

    def test_bad_episodes_rejected(self):
        with pytest.raises(ConfigError):
            simulated_annealing(synthetic_chain_lut(3, 2), episodes=0)

    def test_incremental_objective_is_exact(self):
        """The drift guard: reported best equals a fresh evaluation."""
        lut = synthetic_chain_lut(12, 5, seed=5)
        result = simulated_annealing(lut, episodes=250, seed=1)
        idx = lut.indexed()
        import numpy as np

        choices = np.array(
            [
                lut.candidates[l].index(result.best_assignments[l])
                for l in lut.layers
            ],
            dtype=np.int64,
        )
        assert idx.total_ms(choices) == pytest.approx(result.best_ms)

    def test_works_on_real_branchy_network(self, squeezenet_lut_gpgpu):
        result = simulated_annealing(squeezenet_lut_gpgpu, episodes=200, seed=0)
        assert result.best_ms > 0
        assert set(result.best_assignments) == set(squeezenet_lut_gpgpu.layers)
