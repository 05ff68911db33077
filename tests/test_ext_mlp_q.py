"""Tests for the MLP Q-network agent."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import pbqp_solve, random_search
from repro.errors import ConfigError
from repro.ext.mlp_q import MLPQConfig, MLPQSearch, _MLP
from repro.utils.rng import derive_rng

from tests.helpers import synthetic_chain_lut


class TestMLP:
    def test_forward_shapes(self):
        net = _MLP(dim=5, hidden=8, rng=derive_rng(0, "t"))
        value, hidden = net.forward(np.ones(5))
        assert isinstance(value, float)
        assert hidden.shape == (8,)

    def test_sgd_reduces_error(self):
        net = _MLP(dim=3, hidden=16, rng=derive_rng(1, "t"))
        phi = np.array([1.0, -0.5, 2.0])
        target = -7.0
        before = abs(net.predict(phi) - target)
        for _ in range(200):
            net.sgd_step(phi, target, lr=0.05)
        after = abs(net.predict(phi) - target)
        assert after < before * 0.1

    def test_can_fit_xor_like_interaction(self):
        """A linear model cannot fit XOR; the MLP must."""
        net = _MLP(dim=2, hidden=16, rng=derive_rng(2, "t"))
        data = [
            (np.array([0.0, 0.0]), 0.0),
            (np.array([0.0, 1.0]), 1.0),
            (np.array([1.0, 0.0]), 1.0),
            (np.array([1.0, 1.0]), 0.0),
        ]
        for _ in range(3000):
            for phi, target in data:
                net.sgd_step(phi, target, lr=0.05)
        errors = [abs(net.predict(phi) - target) for phi, target in data]
        assert max(errors) < 0.25


class TestMLPQConfig:
    @pytest.mark.parametrize("field,value", [
        ("episodes", 0),
        ("hidden_units", 0),
        ("learning_rate", 0.0),
        ("discount", -0.5),
        ("polish_sweeps", -1),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            MLPQConfig(**{field: value})


class TestMLPQSearch:
    def test_runs_and_returns_valid_schedule(self):
        lut = synthetic_chain_lut(8, 4, seed=1)
        result = MLPQSearch(lut, MLPQConfig(episodes=150, seed=0)).run()
        assert result.method == "mlp-q"
        assert lut.schedule_time(result.best_assignments) == pytest.approx(
            result.best_ms
        )

    def test_beats_random_search(self):
        lut = synthetic_chain_lut(12, 5, seed=2)
        mlp = MLPQSearch(
            lut, MLPQConfig(episodes=300, seed=0, polish_sweeps=0)
        ).run()
        rs = random_search(lut, episodes=300, seed=0)
        assert mlp.best_ms <= rs.best_ms

    def test_reasonable_on_real_network(self, lenet_lut_gpgpu):
        result = MLPQSearch(
            lenet_lut_gpgpu, MLPQConfig(episodes=300, seed=0)
        ).run()
        optimum = pbqp_solve(lenet_lut_gpgpu).best_ms
        assert result.best_ms <= optimum * 1.5

    def test_deterministic(self):
        lut = synthetic_chain_lut(6, 3, seed=3)
        a = MLPQSearch(lut, MLPQConfig(episodes=100, seed=5)).run()
        b = MLPQSearch(lut, MLPQConfig(episodes=100, seed=5)).run()
        assert a.best_ms == b.best_ms
        assert a.best_assignments == b.best_assignments
