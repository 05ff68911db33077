"""Tests for the coordinate-descent polish step."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import pbqp_solve
from repro.core.polish import coordinate_descent

from tests.helpers import enumerate_optimum, synthetic_chain_lut, trap_lut


def _random_choices(idx, seed):
    rng = np.random.default_rng(seed)
    return np.array([rng.integers(n) for n in idx.num_actions], dtype=np.int64)


class TestCoordinateDescent:
    def test_never_worsens(self):
        lut = synthetic_chain_lut(10, 5, seed=1)
        idx = lut.indexed()
        for seed in range(10):
            start = _random_choices(idx, seed)
            before = idx.total_ms(start)
            polished, after = coordinate_descent(idx, start, max_sweeps=3)
            assert after <= before + 1e-12
            assert idx.total_ms(polished) == pytest.approx(after)

    def test_input_not_mutated(self):
        lut = synthetic_chain_lut(6, 4, seed=2)
        idx = lut.indexed()
        start = _random_choices(idx, 0)
        original = start.copy()
        coordinate_descent(idx, start, max_sweeps=3)
        np.testing.assert_array_equal(start, original)

    def test_fixed_point_of_optimum(self):
        """The global optimum is 1-opt: polish must not move it."""
        lut = synthetic_chain_lut(6, 4, seed=3)
        idx = lut.indexed()
        optimum = pbqp_solve(lut)
        start = np.array(
            [
                lut.candidates[l].index(optimum.best_assignments[l])
                for l in lut.layers
            ],
            dtype=np.int64,
        )
        polished, total = coordinate_descent(idx, start, max_sweeps=5)
        assert total == pytest.approx(optimum.best_ms)
        np.testing.assert_array_equal(polished, start)

    def test_escapes_simple_traps(self):
        """From the greedy (red-path) start, polish reaches the optimum
        of the Fig. 1 trap (flipping l1 to prim0 is a 1-opt move)."""
        lut = trap_lut()
        idx = lut.indexed()
        greedy_start = np.array([0, 1, 0], dtype=np.int64)  # the red path
        _, total = coordinate_descent(idx, greedy_start, max_sweeps=3)
        assert total == pytest.approx(enumerate_optimum(lut).best_ms)

    def test_zero_sweeps_is_identity(self):
        lut = synthetic_chain_lut(5, 3, seed=4)
        idx = lut.indexed()
        start = _random_choices(idx, 1)
        polished, total = coordinate_descent(idx, start, max_sweeps=0)
        np.testing.assert_array_equal(polished, start)
        assert total == pytest.approx(idx.total_ms(start))

    def test_negative_sweeps_rejected(self):
        lut = synthetic_chain_lut(3, 2, seed=5)
        idx = lut.indexed()
        with pytest.raises(ValueError):
            coordinate_descent(idx, _random_choices(idx, 0), max_sweeps=-1)

    @given(
        seed=st.integers(min_value=0, max_value=5000),
        start_seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_monotone_improvement(self, seed, start_seed):
        lut = synthetic_chain_lut(8, 4, seed=seed)
        idx = lut.indexed()
        start = _random_choices(idx, start_seed)
        _, after = coordinate_descent(idx, start, max_sweeps=4)
        assert after <= idx.total_ms(start) + 1e-12
        # And never below the global optimum.
        assert after >= pbqp_solve(lut).best_ms - 1e-9
