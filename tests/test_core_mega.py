"""The mega-batch SoA path: K-seed sweeps bitwise-equal to K scalar runs.

The mega kernels restructure K independent searches as
structure-of-arrays over the seed axis (one contiguous Q block, one
``(K, capacity, 5)`` replay ring) and sweep all seeds in a single
dispatch per episode.  The contract is the repo's usual one: every
per-seed result — and the final flat Q state itself — must equal an
independent single-seed :class:`QSDNNSearch` run bit-for-bit, for
every config corner ({replay on/off} x {first-visit bootstrap} x
{shaping on/off}) and on both kernel backends (without numba the fused
kernels run as plain Python over the same arrays).
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
from repro.core.kernels import (
    MEGA_SEED_THRESHOLD,
    mega_selected,
    numba_available,
    resolve_backend,
)
from tests.helpers import scalar_final_qtable, synthetic_chain_lut


def _mega_config(base: SearchConfig) -> SearchConfig:
    """The same hyper-parameters with the mega path forced."""
    return SearchConfig(
        episodes=base.episodes,
        replay_enabled=base.replay_enabled,
        reward_shaping=base.reward_shaping,
        first_visit_bootstrap=base.first_visit_bootstrap,
        polish_sweeps=base.polish_sweeps,
        track_curve=base.track_curve,
        seed=base.seed,
        kernel="mega",
    )


def _assert_mega_matches_singles(lut, config, seeds):
    """Mega sweep vs K independent scalar runs: results AND flat state."""
    search = MultiSeedSearch(lut, _mega_config(config), seeds=seeds)
    sweep = search.run()
    state = search._kind  # test hook: the runner kind that ran
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
        assert member.kernel_backend == "mega"
        # The SoA row is the scalar run's flat Q state, bitwise.
        flat = scalar_final_qtable(lut, config, seed).flat()
        q, row_max, visited, _ = state.export_seed(s)
        assert np.array_equal(q, flat.data)
        assert np.array_equal(row_max, flat.row_max)
        assert np.array_equal(visited, flat.visited)
    return sweep, state


class TestExactnessProperty:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_independent_runs(self, data):
        lut = synthetic_chain_lut(
            data.draw(st.integers(2, 7), label="layers"),
            data.draw(st.integers(2, 5), label="actions"),
            seed=data.draw(st.integers(0, 99), label="lut_seed"),
        )
        base = data.draw(st.integers(0, 500), label="base_seed")
        count = data.draw(st.integers(1, 4), label="seed_count")
        config = SearchConfig(
            episodes=data.draw(st.sampled_from([12, 40, 90]), label="episodes"),
            replay_enabled=data.draw(st.booleans(), label="replay"),
            reward_shaping=data.draw(st.booleans(), label="shaping"),
            first_visit_bootstrap=data.draw(st.booleans(), label="fvb"),
            polish_sweeps=data.draw(st.sampled_from([0, 2]), label="polish"),
        )
        _assert_mega_matches_singles(lut, config, seed_range(base, count))


class TestExactnessOnRealLuts:
    def test_lenet_gpgpu_both_replay_paths(self, lenet_lut_gpgpu):
        for replay in (True, False):
            _assert_mega_matches_singles(
                lenet_lut_gpgpu,
                SearchConfig(episodes=150, replay_enabled=replay),
                seed_range(0, 3),
            )

    def test_branchy_network(self, squeezenet_lut_gpgpu):
        _assert_mega_matches_singles(
            squeezenet_lut_gpgpu,
            SearchConfig(episodes=80, first_visit_bootstrap=True),
            seed_range(0, 2),
        )

    def test_replay_ring_is_seed_isolated(self, toy_lut_gpgpu):
        """Each SoA ring row equals the ring of a K=1 mega run with
        that seed — batching never cross-contaminates seeds."""
        config = SearchConfig(episodes=60)
        seeds = seed_range(0, 3)
        _, batched = _assert_mega_matches_singles(toy_lut_gpgpu, config, seeds)
        for s, seed in enumerate(seeds):
            solo_search = MultiSeedSearch(
                toy_lut_gpgpu, _mega_config(config), seeds=[seed]
            )
            solo_search.run()
            solo = solo_search._kind
            assert np.array_equal(batched.ring[s], solo.ring[0])
            assert batched.fill == solo.fill and batched.pos == solo.pos


class TestRouting:
    def test_explicit_mega_always_selected(self):
        assert mega_selected("mega", 1)
        assert mega_selected("mega", MEGA_SEED_THRESHOLD + 1)

    def test_auto_needs_threshold_and_numba(self):
        expected = numba_available()
        assert mega_selected("auto", MEGA_SEED_THRESHOLD) == expected
        assert mega_selected("auto", MEGA_SEED_THRESHOLD - 1) is False
        assert mega_selected("auto", 1) is False

    def test_env_var_mega_routes_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "mega")
        assert mega_selected("auto", 1)
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "reference")
        assert not mega_selected("auto", 1)

    def test_named_backends_never_mega(self):
        for choice in ("numba", "reference"):
            assert not mega_selected(choice, 10_000)

    def test_scalar_search_degrades_mega(self, toy_lut_gpgpu):
        """A scalar QSDNNSearch with kernel="mega" runs the per-seed
        backend (there is no K to batch) and stays bitwise-equal."""
        mega = QSDNNSearch(
            toy_lut_gpgpu, SearchConfig(episodes=45, kernel="mega")
        ).run()
        auto = QSDNNSearch(toy_lut_gpgpu, SearchConfig(episodes=45)).run()
        assert mega.best_ms == auto.best_ms
        assert mega.curve_ms == auto.curve_ms
        assert mega.kernel_backend == resolve_backend("auto")

    @pytest.mark.parametrize("replay,fvb,kernel,num_seeds,expected", [
        (True, False, "reference", 2, "reference"),
        (False, False, "reference", 2, "vectorized"),
        (False, True, "reference", 2, "reference"),
        (True, True, "reference", 1, "reference"),
        (False, False, "mega", 2, "mega"),
        (True, True, "mega", 1, "mega"),
        (True, False, "auto", 2, "per-seed"),
        (False, False, "auto", 2, "numba-or-vectorized"),
        (False, True, "auto", 2, "per-seed"),
        (False, False, "auto", MEGA_SEED_THRESHOLD, "mega-or-vectorized"),
        (True, False, "auto", MEGA_SEED_THRESHOLD, "mega-or-reference"),
        (False, False, "numba", 2, "numba"),
        (True, True, "numba", 2, "numba"),
    ])
    def test_routing_rule(
        self, monkeypatch, replay, fvb, kernel, num_seeds, expected
    ):
        """(replay, fvb, kernel, K) -> the runner kind that ran, read
        off the results' ``kernel_backend`` label.  The "-or-" rows
        name what the numba leg runs first, the reference leg second."""
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        numba = numba_available()
        if kernel == "numba" and not numba:
            pytest.skip("numba not installed")
        expected = {
            "per-seed": "numba" if numba else "reference",
            "numba-or-vectorized": "numba" if numba else "vectorized",
            "mega-or-vectorized": "mega" if numba else "vectorized",
            "mega-or-reference": "mega" if numba else "reference",
        }.get(expected, expected)
        config = SearchConfig(
            episodes=12, replay_enabled=replay, first_visit_bootstrap=fvb,
            kernel=kernel,
        )
        sweep = MultiSeedSearch(
            synthetic_chain_lut(3, 3, seed=4), config,
            seeds=seed_range(0, num_seeds),
        ).run()
        assert {r.kernel_backend for r in sweep.results} == {expected}

    def test_sweep_surface(self, toy_lut_gpgpu):
        config = SearchConfig(episodes=45, kernel="mega")
        sweep = MultiSeedSearch(
            toy_lut_gpgpu, config, seeds=seed_range(0, 3)
        ).run()
        assert sweep.lockstep
        assert all(r.kernel_backend == "mega" for r in sweep.results)
        assert "seeds/s" in sweep.summary()


class TestConfigValidation:
    def test_mega_is_a_valid_kernel_choice(self):
        assert SearchConfig(episodes=10, kernel="mega").kernel == "mega"

    def test_unknown_kernel_still_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            SearchConfig(episodes=10, kernel="giga")
