"""Tests for the linear function-approximation agent."""

from __future__ import annotations

import pytest

from repro.baselines import pbqp_solve, random_search
from repro.errors import ConfigError
from repro.ext.linear_q import LinearQConfig, LinearQSearch

from tests.helpers import synthetic_chain_lut


class TestLinearQConfig:
    @pytest.mark.parametrize("field,value", [
        ("episodes", 0),
        ("learning_rate", 0.0),
        ("discount", 1.5),
        ("polish_sweeps", -1),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            LinearQConfig(**{field: value})


class TestLinearQSearch:
    def test_runs_and_returns_valid_schedule(self):
        lut = synthetic_chain_lut(10, 4, seed=1)
        result = LinearQSearch(lut, LinearQConfig(episodes=200, seed=0)).run()
        assert result.method == "linear-q"
        assert lut.schedule_time(result.best_assignments) == pytest.approx(
            result.best_ms
        )

    def test_beats_random_search(self):
        lut = synthetic_chain_lut(15, 6, seed=2)
        lq = LinearQSearch(
            lut, LinearQConfig(episodes=400, seed=0, polish_sweeps=0)
        ).run()
        rs = random_search(lut, episodes=400, seed=0)
        assert lq.best_ms <= rs.best_ms

    def test_near_optimal_on_real_network(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        result = LinearQSearch(lut, LinearQConfig(episodes=500, seed=0)).run()
        optimum = pbqp_solve(lut).best_ms
        assert result.best_ms <= optimum * 1.25

    def test_deterministic(self):
        lut = synthetic_chain_lut(8, 4, seed=3)
        a = LinearQSearch(lut, LinearQConfig(episodes=150, seed=7)).run()
        b = LinearQSearch(lut, LinearQConfig(episodes=150, seed=7)).run()
        assert a.best_ms == b.best_ms
        assert a.best_assignments == b.best_assignments

    def test_curve_recorded(self):
        lut = synthetic_chain_lut(6, 3, seed=4)
        result = LinearQSearch(lut, LinearQConfig(episodes=100, seed=0)).run()
        assert len(result.curve_ms) == 100

    def test_polish_never_hurts(self):
        lut = synthetic_chain_lut(10, 4, seed=5)
        raw = LinearQSearch(
            lut, LinearQConfig(episodes=200, seed=0, polish_sweeps=0)
        ).run()
        polished = LinearQSearch(
            lut, LinearQConfig(episodes=200, seed=0, polish_sweeps=2)
        ).run()
        assert polished.best_ms <= raw.best_ms + 1e-9
