"""Population-based baselines: CEM and the genetic algorithm."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import cross_entropy_method, genetic_search
from repro.baselines.pbqp import pbqp_solve
from repro.core import QSDNNSearch, SearchConfig
from repro.core.population import validate_population
from repro.errors import ConfigError
from tests.helpers import synthetic_chain_lut, trap_lut

RUNNERS = [cross_entropy_method, genetic_search]


class TestPopulationsAlwaysValid:
    """Every priced generation contains only valid primitive indices."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_observed_populations_valid(self, runner, data):
        lut = synthetic_chain_lut(
            data.draw(st.integers(2, 8), label="layers"),
            data.draw(st.integers(2, 7), label="actions"),
            seed=data.draw(st.integers(0, 99), label="lut_seed"),
        )
        engine = lut.engine()
        seen = []

        def observe(population, totals):
            validate_population(engine.num_actions, population)
            assert len(totals) == len(population)
            assert np.isfinite(totals).all()
            seen.append(len(population))

        runner(
            lut,
            episodes=data.draw(st.sampled_from([7, 64, 150]), label="episodes"),
            seed=data.draw(st.integers(0, 99), label="seed"),
            population=data.draw(st.sampled_from([4, 16]), label="population"),
            on_population=observe,
        )
        assert seen, "runner never priced a population"


class TestBudgetAndDeterminism:
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_budget_counted_in_evaluations(self, runner):
        lut = synthetic_chain_lut(4, 3, seed=1)
        result = runner(lut, episodes=100, seed=0, population=16)
        assert result.episodes == 100
        assert len(result.curve_ms) == 100

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_same_seed_same_result(self, runner):
        lut = synthetic_chain_lut(5, 4, seed=2)
        a = runner(lut, episodes=120, seed=7)
        b = runner(lut, episodes=120, seed=7)
        assert a.best_ms == b.best_ms
        assert a.curve_ms == b.curve_ms
        assert a.best_assignments == b.best_assignments

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_distinct_seeds_explore_differently(self, runner):
        lut = synthetic_chain_lut(6, 5, seed=3)
        a = runner(lut, episodes=60, seed=0)
        b = runner(lut, episodes=60, seed=1)
        assert a.curve_ms != b.curve_ms

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_rejects_bad_budgets(self, runner):
        lut = synthetic_chain_lut(3, 2, seed=0)
        with pytest.raises(ConfigError):
            runner(lut, episodes=0)
        with pytest.raises(ConfigError):
            runner(lut, episodes=10, population=1)


class TestSolutionQuality:
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_escapes_fig1_trap(self, runner):
        result = runner(trap_lut(), episodes=200, seed=0)
        assert result.best_ms == pytest.approx(10.0)

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_near_optimal_on_chains(self, runner):
        lut = synthetic_chain_lut(6, 4, seed=5)
        optimal = pbqp_solve(lut).best_ms
        result = runner(lut, episodes=600, seed=0)
        assert result.best_ms <= optimal * 1.05 + 1e-9

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_within_five_percent_of_qsdnn(self, runner, lenet_lut_gpgpu):
        """The Table-2 claim: population baselines match QS-DNN closely."""
        qs = QSDNNSearch(
            lenet_lut_gpgpu, SearchConfig(episodes=600, seed=0)
        ).run()
        result = runner(lenet_lut_gpgpu, episodes=600, seed=0)
        assert result.best_ms <= qs.best_ms * 1.05

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_polish_off_reports_raw_best(self, runner):
        lut = synthetic_chain_lut(5, 4, seed=8)
        raw = runner(lut, episodes=80, seed=0, polish_sweeps=0)
        polished = runner(lut, episodes=80, seed=0, polish_sweeps=2)
        assert polished.best_ms <= raw.best_ms + 1e-12
        engine = lut.engine()
        choices = engine.choices_of(raw.best_assignments)
        assert engine.price(choices) == pytest.approx(raw.best_ms)
