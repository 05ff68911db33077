"""Property-based tests (hypothesis) on the core data structures."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import PBQPSolver, pbqp_solve, random_search
from repro.core import QSDNNSearch, SearchConfig
from repro.core.epsilon import EpsilonSchedule
from repro.core.polish import coordinate_descent
from repro.core.qtable import QTable
from repro.engine.lut import LatencyTable
from repro.hw.noise import NoiseModel
from repro.nn.layers import Layer
from repro.nn.shapes import infer_output_shape
from repro.nn.tensor import TensorShape
from repro.nn.types import LayerKind
from repro.utils.rng import derive_rng, spawn_seed
from repro.utils.stats import running_min

from tests.helpers import enumerate_optimum, synthetic_chain_lut, synthetic_lut

# -- strategies ---------------------------------------------------------------

small_lut = st.builds(
    synthetic_chain_lut,
    num_layers=st.integers(min_value=2, max_value=6),
    num_actions=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)


@st.composite
def graph_lut(draw):
    """A tiny random LUT on a chain, a tree, or a DAG that joins each
    pair of layers i < j with probability p."""
    num_layers = draw(st.integers(min_value=2, max_value=6))
    shape = draw(st.sampled_from(["chain", "tree", "dag"]))
    if shape == "chain":
        edges = [(i, i + 1) for i in range(num_layers - 1)]
    elif shape == "tree":
        edges = [
            (draw(st.integers(min_value=0, max_value=j - 1)), j)
            for j in range(1, num_layers)
        ]
    else:
        p = draw(st.sampled_from([0.3, 0.5, 0.7, 1.0]))
        edges = [
            (i, j)
            for i in range(num_layers)
            for j in range(i + 1, num_layers)
            if draw(st.floats(min_value=0.0, max_value=1.0)) < p
        ]
    return synthetic_lut(
        num_layers,
        draw(st.integers(min_value=2, max_value=4)),
        edges,
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        transfer_scale=2.0,
        conversion_scale=3.0,
    )


chain_lut = st.builds(
    synthetic_chain_lut,
    num_layers=st.integers(min_value=2, max_value=25),
    num_actions=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)


# -- exactness properties ------------------------------------------------------


class TestSolverProperties:
    @given(lut=graph_lut())
    @settings(max_examples=60, deadline=None)
    def test_pbqp_equals_enumeration(self, lut: LatencyTable):
        solver = PBQPSolver(lut)
        result = solver.solve()
        assert result.best_ms == pytest.approx(
            enumerate_optimum(lut).best_ms, rel=1e-12
        )
        assert solver.proven

    @given(lut=chain_lut)
    @settings(max_examples=25, deadline=None)
    def test_pbqp_is_one_opt_on_chains(self, lut: LatencyTable):
        """Too large to enumerate: no single-layer move improves the
        proven optimum."""
        solver = PBQPSolver(lut)
        result = solver.solve()
        assert solver.proven
        idx = lut.indexed()
        start = np.array(
            [lut.candidates[l].index(result.best_assignments[l]) for l in lut.layers],
            dtype=np.int64,
        )
        _, polished = coordinate_descent(idx, start, max_sweeps=2)
        assert polished >= result.best_ms - 1e-9

    @given(lut=chain_lut, seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_pbqp_lower_bounds_random_schedules(self, lut: LatencyTable, seed: int):
        optimum = pbqp_solve(lut).best_ms
        rng = np.random.default_rng(seed)
        idx = lut.indexed()
        for _ in range(5):
            choices = np.array(
                [rng.integers(n) for n in idx.num_actions], dtype=np.int64
            )
            assert optimum <= idx.total_ms(choices) + 1e-9

    @given(lut=chain_lut, seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_rs_never_beats_pbqp(self, lut: LatencyTable, seed: int):
        optimum = pbqp_solve(lut).best_ms
        rs = random_search(lut, episodes=50, seed=seed)
        assert optimum <= rs.best_ms + 1e-9

    @given(lut=small_lut, seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=10, deadline=None)
    def test_qsdnn_never_beats_enumeration(self, lut: LatencyTable, seed: int):
        exact = enumerate_optimum(lut).best_ms
        rl = QSDNNSearch(lut, SearchConfig(episodes=60, seed=seed)).run()
        assert exact <= rl.best_ms + 1e-9

    @given(lut=chain_lut)
    @settings(max_examples=15, deadline=None)
    def test_schedule_time_consistency(self, lut: LatencyTable):
        result = pbqp_solve(lut)
        assert lut.schedule_time(result.best_assignments) == pytest.approx(
            result.best_ms
        )


# -- search bookkeeping properties ---------------------------------------------


class TestSearchProperties:
    @given(
        lut=small_lut,
        episodes=st.integers(min_value=20, max_value=120),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=15, deadline=None)
    def test_best_never_above_curve_min(self, lut, episodes, seed):
        """The reported best is the curve minimum, improved (never
        worsened) by the final polish sweeps."""
        result = QSDNNSearch(
            lut, SearchConfig(episodes=episodes, seed=seed)
        ).run()
        assert result.best_ms <= min(result.curve_ms) + 1e-9

    @given(
        lut=small_lut,
        episodes=st.integers(min_value=20, max_value=120),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=10, deadline=None)
    def test_unpolished_best_is_min_of_curve(self, lut, episodes, seed):
        result = QSDNNSearch(
            lut, SearchConfig(episodes=episodes, seed=seed, polish_sweeps=0)
        ).run()
        assert result.best_ms == pytest.approx(min(result.curve_ms))

    @given(
        lut=small_lut,
        episodes=st.integers(min_value=20, max_value=100),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=10, deadline=None)
    def test_reported_assignment_matches_best(self, lut, episodes, seed):
        result = QSDNNSearch(
            lut, SearchConfig(episodes=episodes, seed=seed)
        ).run()
        assert lut.schedule_time(result.best_assignments) == pytest.approx(
            result.best_ms
        )

    @given(values=st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1))
    def test_running_min_properties(self, values):
        curve = running_min(values)
        assert len(curve) == len(values)
        assert curve[-1] == min(values)
        assert all(a >= b for a, b in zip(curve, curve[1:]))


# -- epsilon schedule properties --------------------------------------------------


class TestEpsilonProperties:
    @given(total=st.integers(min_value=20, max_value=5000))
    def test_paper_schedule_covers_exactly(self, total):
        sched = EpsilonSchedule.paper(total)
        assert sched.total_episodes == total
        trace = sched.trace()
        assert len(trace) == total
        assert all(0.0 <= e <= 1.0 for e in trace)
        assert all(a >= b for a, b in zip(trace, trace[1:]))

    @given(total=st.integers(min_value=20, max_value=5000))
    def test_half_explores(self, total):
        sched = EpsilonSchedule.paper(total)
        explore = sum(1 for e in sched.trace() if e == 1.0)
        assert explore == total // 2


# -- Q table properties -------------------------------------------------------------


class TestQTableProperties:
    @given(
        rewards=st.lists(
            st.floats(min_value=-100, max_value=0), min_size=1, max_size=50
        )
    )
    def test_q_bounded_by_reward_range(self, rewards):
        """With gamma < 1 and rewards in [-100, 0], Q stays in
        [-100 / (1 - gamma), 0]."""
        q = QTable([2, 2], learning_rate=0.5, discount=0.9)
        for i, r in enumerate(rewards):
            q.update(i % 2, 0, i % 2, r)
        bound = -100 / (1 - 0.9) - 1e-9
        for layer in range(2):
            for prev in range(q.row_sizes[layer]):
                for value in q.q_values(layer, prev):
                    assert bound <= value <= 0.0

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_greedy_rollout_is_valid_path(self, seed):
        rng = np.random.default_rng(seed)
        sizes = [int(rng.integers(1, 5)) for _ in range(4)]
        q = QTable(sizes, learning_rate=0.1, discount=0.9)
        rollout = q.greedy_rollout()
        assert len(rollout) == 4
        for choice, n in zip(rollout, sizes):
            assert 0 <= choice < n


# -- infrastructure properties ----------------------------------------------------------


class TestInfraProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        names=st.lists(st.text(max_size=8), min_size=1, max_size=3),
    )
    def test_spawn_seed_stable_and_in_range(self, seed, names):
        a = spawn_seed(seed, *names)
        b = spawn_seed(seed, *names)
        assert a == b and 0 <= a < 2**64

    @given(
        sigma=st.floats(min_value=0.001, max_value=0.5),
        true_ms=st.floats(min_value=1e-6, max_value=1e6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_noise_positive(self, sigma, true_ms, seed):
        noise = NoiseModel(sigma)
        assert noise.sample(true_ms, derive_rng(seed, "n")) > 0

    @given(
        c=st.integers(min_value=1, max_value=64),
        h=st.integers(min_value=3, max_value=64),
        w=st.integers(min_value=3, max_value=64),
        k=st.integers(min_value=1, max_value=3),
        s=st.integers(min_value=1, max_value=3),
        p=st.integers(min_value=0, max_value=2),
        out=st.integers(min_value=1, max_value=32),
    )
    def test_conv_shape_inference_consistent(self, c, h, w, k, s, p, out):
        layer = Layer(
            name="c", kind=LayerKind.CONV, inputs=("x",),
            kernel=k, stride=s, padding=p, out_channels=out,
        )
        shape = infer_output_shape(layer, [TensorShape(c, h, w)])
        assert shape.channels == out
        assert shape.height == (h + 2 * p - k) // s + 1
        assert shape.width == (w + 2 * p - k) // s + 1
        assert shape.height >= 1 and shape.width >= 1
