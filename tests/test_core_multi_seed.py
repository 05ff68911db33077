"""The lockstep multi-seed runner: exactness is the contract.

Every runner kind (scalar, vectorized, mega) must reproduce the
per-seed results of independent single-seed :class:`QSDNNSearch` runs
bit-for-bit — ``best_ms``, the whole episode curve, the final greedy
policy and the final flat Q state.  The Hypothesis test sweeps synthetic
landscapes, seed sets and config variants; the fixture-based tests pin
real profiled LUTs (including a branchy network).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MultiSeedSearch,
    QSDNNSearch,
    SearchConfig,
    seed_range,
)
from repro.errors import ConfigError
from tests.helpers import scalar_final_qtable, synthetic_chain_lut


def _assert_members_match_singles(lut, config, seeds):
    search = MultiSeedSearch(lut, config, seeds=seeds)
    sweep = search.run()
    kind = search._kind  # test hook: the runner kind that ran
    assert len(sweep.results) == len(seeds)
    for s, (seed, member) in enumerate(zip(seeds, sweep.results)):
        single_cfg = SearchConfig(
            episodes=config.episodes,
            replay_enabled=config.replay_enabled,
            reward_shaping=config.reward_shaping,
            first_visit_bootstrap=config.first_visit_bootstrap,
            polish_sweeps=config.polish_sweeps,
            track_curve=config.track_curve,
            seed=seed,
        )
        single = QSDNNSearch(lut, single_cfg).run()
        assert member.best_ms == single.best_ms
        assert member.curve_ms == single.curve_ms
        assert member.epsilon_trace == single.epsilon_trace
        assert member.best_assignments == single.best_assignments
        assert member.greedy_ms == single.greedy_ms
        assert member.config.seed == seed
        # The member's exported state is the solo run's flat Q state.
        flat = scalar_final_qtable(lut, single_cfg, seed).flat()
        q, row_max, visited, _ = kind.export_seed(s)
        assert np.array_equal(q, flat.data)
        assert np.array_equal(row_max, flat.row_max)
        assert np.array_equal(visited, flat.visited)
    return sweep


class TestExactnessProperty:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_independent_runs(self, data):
        lut = synthetic_chain_lut(
            data.draw(st.integers(2, 8), label="layers"),
            data.draw(st.integers(2, 6), label="actions"),
            seed=data.draw(st.integers(0, 99), label="lut_seed"),
        )
        base = data.draw(st.integers(0, 500), label="base_seed")
        count = data.draw(st.integers(1, 4), label="seed_count")
        config = SearchConfig(
            # >= 20 exercises the full paper schedule (explore, decay,
            # exploit); smaller budgets use the constant-1.0 schedule.
            episodes=data.draw(st.sampled_from([12, 40, 90]), label="episodes"),
            replay_enabled=data.draw(st.booleans(), label="replay"),
            reward_shaping=data.draw(st.booleans(), label="shaping"),
            first_visit_bootstrap=data.draw(st.booleans(), label="fvb"),
            polish_sweeps=data.draw(st.sampled_from([0, 2]), label="polish"),
        )
        _assert_members_match_singles(lut, config, seed_range(base, count))


class TestExactnessOnRealLuts:
    def test_lenet_gpgpu_both_paths(self, lenet_lut_gpgpu):
        for replay in (True, False):
            _assert_members_match_singles(
                lenet_lut_gpgpu,
                SearchConfig(episodes=150, replay_enabled=replay),
                seed_range(0, 3),
            )

    def test_branchy_network(self, squeezenet_lut_gpgpu):
        _assert_members_match_singles(
            squeezenet_lut_gpgpu,
            SearchConfig(episodes=80, replay_enabled=False),
            seed_range(0, 2),
        )

    def test_first_visit_bootstrap_runs_lockstep(self, toy_lut_gpgpu):
        """The episode kernels carry visit bookkeeping natively, so
        first-visit configs lockstep too (one pricing per episode)."""
        config = SearchConfig(episodes=60, first_visit_bootstrap=True)
        sweep = _assert_members_match_singles(
            toy_lut_gpgpu, config, seed_range(0, 2)
        )
        assert sweep.lockstep
        assert sweep.batched_pricings == 60


class TestRunnerSurface:
    def test_one_batched_pricing_per_episode(self, toy_lut_gpgpu):
        config = SearchConfig(episodes=45, replay_enabled=False)
        sweep = MultiSeedSearch(toy_lut_gpgpu, config, seeds=seed_range(0, 4)).run()
        assert sweep.lockstep
        assert sweep.batched_pricings == 45

    def test_result_surface(self, toy_lut_gpgpu):
        config = SearchConfig(episodes=45)
        sweep = MultiSeedSearch(toy_lut_gpgpu, config, seeds=[7, 3, 11]).run()
        assert sweep.seeds == [7, 3, 11]
        assert sweep.best.best_ms == min(sweep.best_ms_per_seed)
        assert "multi-seed qs-dnn" in sweep.summary()
        assert sweep.wall_clock_s >= 0.0
        per_seed = sum(r.wall_clock_s for r in sweep.results)
        assert per_seed == pytest.approx(sweep.wall_clock_s)

    def test_duplicate_seeds_are_identical_runs(self, toy_lut_gpgpu):
        sweep = MultiSeedSearch(
            toy_lut_gpgpu, SearchConfig(episodes=45), seeds=[5, 5]
        ).run()
        a, b = sweep.results
        assert a.best_ms == b.best_ms
        assert a.curve_ms == b.curve_ms

    def test_rejects_empty_seed_list(self, toy_lut_gpgpu):
        with pytest.raises(ConfigError):
            MultiSeedSearch(toy_lut_gpgpu, SearchConfig(episodes=45), seeds=[])

    def test_seed_range_validation(self):
        assert seed_range(3, 2) == [3, 4]
        with pytest.raises(ConfigError):
            seed_range(0, 0)


class TestBatchedLayerCosts:
    """The engine contract the lockstep loop relies on."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_layer_costs_batch_matches_singles_bitwise(self, data):
        lut = synthetic_chain_lut(
            data.draw(st.integers(2, 9), label="layers"),
            data.draw(st.integers(1, 6), label="actions"),
            seed=data.draw(st.integers(0, 99), label="lut_seed"),
        )
        engine = lut.engine()
        rng = np.random.default_rng(data.draw(st.integers(0, 999)))
        batch = engine.sample_batch(rng, data.draw(st.integers(1, 12)))
        costs = engine.layer_costs_batch(batch)
        totals = costs.sum(axis=1)
        for k in range(len(batch)):
            single = engine.layer_costs(batch[k])
            assert (costs[k] == single).all()
            assert totals[k] == float(single.sum())
