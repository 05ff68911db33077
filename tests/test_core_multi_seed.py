"""The lockstep multi-seed runner: exactness is the contract.

Every runner kind (scalar, vectorized, mega) must reproduce the
per-seed results of independent single-seed :class:`QSDNNSearch` runs
bit-for-bit — ``best_ms``, the whole episode curve, the final greedy
policy and the final flat Q state.  The Hypothesis test sweeps synthetic
landscapes, seed sets and config variants; the fixture-based tests pin
real profiled LUTs (including a branchy network).

The final-state checks run in-process: a sweep sharded across forked
processes leaves no kind holding every seed.  The sharded path is
checked against the in-process one field by field, along with its
process rule, failure handling, warm prior and warnings.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MultiSeedSearch,
    QSDNNSearch,
    SearchConfig,
    multi_seed,
    seed_range,
)
from repro.core.priors import StoredQPrior
from repro.errors import ConfigError, SearchError
from tests.helpers import scalar_final_qtable, synthetic_chain_lut


def _in_process():
    """Pin sweeps to one process, whatever the host offers."""
    return mock.patch.object(multi_seed, "shard_count", return_value=1)


@contextlib.contextmanager
def _two_cpus():
    """Let sweeps see two usable CPUs; the rest of the rule holds."""
    with mock.patch.object(multi_seed, "usable_cpus", return_value=2):
        yield
    assert multiprocessing.active_children() == []


def _sharded_run(lut, config, seeds, prior=None):
    """A sweep forced onto two processes; asserts that it sharded."""
    search = MultiSeedSearch(lut, config, seeds=seeds, prior=prior)
    with _two_cpus():
        sweep = search.run()
    assert search._kind is None  # no in-process kind ran: it sharded
    return sweep


def _assert_members_match_singles(lut, config, seeds):
    search = MultiSeedSearch(lut, config, seeds=seeds)
    with _in_process():
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


#: Every field a sweep member reports, besides the wall clock.
MEMBER_FIELDS = (
    "best_ms",
    "curve_ms",
    "epsilon_trace",
    "best_assignments",
    "greedy_ms",
    "kernel_backend",
)


def _fail_in(where: str, error: BaseException | None = None):
    """A ``_run_shard`` that fails in the parent or in a child: raising
    ``error``, or (``error`` None) exiting without a word."""
    parent = os.getpid()
    run_shard = MultiSeedSearch._run_shard

    def run(self, seeds, prior):
        if (os.getpid() == parent) == (where == "parent"):
            if error is None:
                os._exit(3)
            raise error
        return run_shard(self, seeds, prior)

    return run


class TestShardedSweeps:
    @pytest.mark.parametrize("config,backend", [
        (SearchConfig(episodes=60), None),  # scalar, replay on
        (  # scalar: the first-visit bootstrap
            SearchConfig(
                episodes=60, replay_enabled=False, first_visit_bootstrap=True,
                kernel="reference",
            ),
            "reference",
        ),
        (SearchConfig(episodes=60, replay_enabled=False, kernel="reference"),
         "vectorized"),
    ])
    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_sharded_equals_in_process(
        self, toy_lut_gpgpu, config, backend, count
    ):
        seeds = seed_range(5, count)
        sweep = _sharded_run(toy_lut_gpgpu, config, seeds)
        with _in_process():
            expected = MultiSeedSearch(toy_lut_gpgpu, config, seeds=seeds).run()
        assert sweep.seeds == seeds
        for got, want in zip(sweep.results, expected.results, strict=True):
            for field in MEMBER_FIELDS:
                assert getattr(got, field) == getattr(want, field), field
            assert got.config.seed == want.config.seed
        if backend is not None:
            assert {r.kernel_backend for r in sweep.results} == {backend}
        assert sweep.batched_pricings == expected.batched_pricings == 60
        per_seed = sum(r.wall_clock_s for r in sweep.results)
        assert per_seed == pytest.approx(sweep.wall_clock_s)

    def test_parent_runs_the_last_contiguous_shard(
        self, toy_lut_gpgpu, tmp_path, monkeypatch
    ):
        log = tmp_path / "shards.log"
        run_shard = MultiSeedSearch._run_shard

        def logged(self, seeds, prior):
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {seeds}\n")
            return run_shard(self, seeds, prior)

        monkeypatch.setattr(MultiSeedSearch, "_run_shard", logged)
        _sharded_run(toy_lut_gpgpu, SearchConfig(episodes=30), [4, 9, 2])
        shards = dict(line.split(" ", 1) for line in log.read_text().splitlines())
        assert shards.pop(str(os.getpid())) == "[2]"
        assert list(shards.values()) == ["[4, 9]"]

    @pytest.mark.parametrize(
        "anytime,mega,child,thread,cpus,num_seeds,expected",
        [
            ({}, False, False, False, 2, 8, 2),
            ({}, False, False, False, 4, 8, 4),
            ({}, False, False, False, 8, 3, 3),
            ({}, False, False, False, 1, 8, 1),
            ({}, False, False, False, 2, 1, 1),
            (dict(checkpoint_every=10), False, False, False, 2, 8, 1),
            (dict(on_checkpoint=print), False, False, False, 2, 8, 1),
            (dict(resume={}), False, False, False, 2, 8, 1),
            ({}, True, False, False, 2, 8, 1),
            ({}, False, True, False, 2, 8, 1),
            ({}, False, False, True, 2, 8, 1),
        ],
    )
    def test_shard_rule(
        self, monkeypatch, anytime, mega, child, thread, cpus, num_seeds,
        expected,
    ):
        """(anytime arguments, mega, in a multiprocessing child, a second
        Python thread, usable CPUs, K) -> the number of processes."""
        monkeypatch.setattr(multi_seed, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(
            multiprocessing, "parent_process", lambda: object() if child else None
        )
        monkeypatch.setattr(threading, "active_count", lambda: 2 if thread else 1)
        assert multi_seed.shard_count(num_seeds, mega, **anytime) == expected

    def test_usable_cpus_reads_the_affinity_mask(self):
        assert multi_seed.usable_cpus() == len(os.sched_getaffinity(0))

    def test_anytime_sweeps_stay_in_process(self, toy_lut_gpgpu):
        search = MultiSeedSearch(
            toy_lut_gpgpu, SearchConfig(episodes=30), seeds=seed_range(0, 2)
        )
        with _two_cpus():
            search.run(checkpoint_every=10, on_checkpoint=lambda ckpt: True)
        assert search._kind is not None

    def test_failing_child_raises_in_the_caller(self, toy_lut_gpgpu, monkeypatch):
        monkeypatch.setattr(
            MultiSeedSearch, "_run_shard", _fail_in("child", ValueError("boom"))
        )
        with pytest.raises(SearchError, match=r"\[0, 1\] failed: ValueError: boom"):
            _sharded_run(toy_lut_gpgpu, SearchConfig(episodes=30), seed_range(0, 3))
        assert multiprocessing.active_children() == []

    def test_silent_child_death_raises(self, toy_lut_gpgpu, monkeypatch):
        monkeypatch.setattr(MultiSeedSearch, "_run_shard", _fail_in("child"))
        with pytest.raises(SearchError, match=r"\[0\] exited with code 3"):
            _sharded_run(toy_lut_gpgpu, SearchConfig(episodes=30), seed_range(0, 2))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error", [ValueError("boom"), KeyboardInterrupt()])
    def test_failing_parent_shard_raises(self, toy_lut_gpgpu, monkeypatch, error):
        monkeypatch.setattr(MultiSeedSearch, "_run_shard", _fail_in("parent", error))
        with pytest.raises(type(error)):
            _sharded_run(toy_lut_gpgpu, SearchConfig(episodes=30), seed_range(0, 2))
        assert multiprocessing.active_children() == []

    def test_warm_prior_is_resolved_in_the_parent(self, tmp_path):
        lut = synthetic_chain_lut(5, 3, seed=8)
        probe = QSDNNSearch(lut, SearchConfig(episodes=20, seed=99)).run()
        log = tmp_path / "queries.log"

        class PidLoggingStore:
            """One stored result; every query logs the caller's pid."""

            def query(self, **filters):
                with open(log, "a") as out:
                    out.write(f"{os.getpid()}\n")
                return [types.SimpleNamespace(payload=probe)]

        config = SearchConfig(episodes=60, warm_start="stored", kernel="reference")
        prior = StoredQPrior(PidLoggingStore())
        seeds = seed_range(0, 3)
        with _in_process():
            expected = MultiSeedSearch(lut, config, seeds=seeds, prior=prior).run()
        log.unlink()
        sweep = _sharded_run(lut, config, seeds, prior=prior)
        assert set(log.read_text().split()) == {str(os.getpid())}
        for got, want in zip(sweep.results, expected.results, strict=True):
            assert got.warm_start == "stored"
            for field in MEMBER_FIELDS:
                assert getattr(got, field) == getattr(want, field), field

    def test_no_warning_escapes(self, toy_lut_gpgpu):
        """On Python >= 3.12 this checks the fork-warning filter."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _sharded_run(toy_lut_gpgpu, SearchConfig(episodes=30), seed_range(0, 2))
        assert [str(w.message) for w in caught] == []


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
