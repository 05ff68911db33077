"""Anytime search: checkpoint codec, preemption, and bitwise resume.

Three layers of proof that a resumed search is indistinguishable from
an uninterrupted one.  Codec tests show the JSON text round-trips
every double and RNG state bit-for-bit (and rejects unknown schema
versions loudly).  Deterministic tests preempt a search at a known
boundary and compare the resumed run's result *and* final internal
state (via a later checkpoint) against the plain run.  A hypothesis
property does the same over random LUTs, budgets, boundaries, replay
and bootstrap settings — including capture under one kernel backend
and resume under another.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MultiSeedSearch, QSDNNSearch, SearchConfig, seed_range
from repro.core.checkpoint import (
    CHECKPOINT_FORMAT,
    check_resume,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.core.kernels import numba_available
from repro.errors import CheckpointError, ConfigError, PreemptedError

from tests.helpers import synthetic_chain_lut

needs_numba = pytest.mark.skipif(
    not numba_available(), reason="numba not installed"
)


def _config(**overrides) -> SearchConfig:
    fields = dict(episodes=60, seed=3, polish_sweeps=0, kernel="reference")
    fields.update(overrides)
    return SearchConfig(**fields)


def _search(lut, config, seeds=None):
    """A single-seed search, or a multi-seed sweep over ``seeds``."""
    if seeds is None:
        return QSDNNSearch(lut, config)
    return MultiSeedSearch(lut, config, seeds=seeds)


def _capture_at(lut, config, episode: int, seeds=None) -> dict:
    """Run until the boundary at ``episode``, preempt, return the
    encoded-then-decoded checkpoint (the exact resume input)."""

    def stop(ckpt: dict):
        return ckpt["episode"] < episode

    with pytest.raises(PreemptedError) as exc:
        _search(lut, config, seeds).run(checkpoint_every=1, on_checkpoint=stop)
    ckpt = exc.value.checkpoint
    assert ckpt["episode"] == episode
    return decode_checkpoint(encode_checkpoint(ckpt))


def _strip_elapsed(ckpt: dict) -> dict:
    """Everything wall-clock-independent in a checkpoint."""
    return {k: v for k, v in ckpt.items() if k != "elapsed_s"}


class TestCheckpointCodec:
    def test_round_trip_is_bitwise(self):
        lut = synthetic_chain_lut(5, 3, seed=11)
        ckpt = _capture_at(lut, _config(), 20)
        text = encode_checkpoint(ckpt)
        again = decode_checkpoint(text)
        # Dict equality on floats is bitwise: 1.0 != nextafter(1.0, 2).
        assert again == ckpt
        assert encode_checkpoint(again) == text
        snap = again["seeds"][0]
        # The fields a resume actually needs, all present and typed.
        assert snap["seed"] == 3
        assert all(isinstance(q, float) for q in snap["q"])
        assert snap["policy_rng"]["bit_generator"] == "PCG64"
        assert isinstance(snap["policy_rng"]["state"]["state"], int)
        assert math.isfinite(ckpt["best_ms"])
        assert len(snap["curve"]) == 20

    def test_awkward_doubles_survive_encode(self):
        # Shortest-repr JSON floats round-trip any double exactly.
        values = [0.1, 1 / 3, 2.0**-1074, 1e308, -0.0, 123456.789012345678]
        text = json.dumps(values)
        assert json.loads(text) == values

    def test_unknown_format_rejected_loudly(self):
        lut = synthetic_chain_lut(4, 2, seed=0)
        ckpt = _capture_at(lut, _config(), 10)
        bumped = dict(ckpt, format=CHECKPOINT_FORMAT + 1)
        with pytest.raises(CheckpointError, match="unknown checkpoint format"):
            decode_checkpoint(encode_checkpoint(bumped))
        with pytest.raises(CheckpointError, match="unknown checkpoint format"):
            check_resume(
                bumped, kind="search", graph=lut.graph_name, mode=lut.mode,
                episodes=60, seeds=[3],
            )

    def test_junk_rejected(self):
        with pytest.raises(CheckpointError, match="parse"):
            decode_checkpoint("{not json")
        with pytest.raises(CheckpointError, match="JSON object"):
            decode_checkpoint("[1, 2, 3]")

    def test_check_resume_rejects_mismatches(self):
        lut = synthetic_chain_lut(4, 2, seed=0)
        ckpt = _capture_at(lut, _config(), 10)
        good = dict(
            kind="search", graph=lut.graph_name, mode=lut.mode,
            episodes=60, seeds=[3],
        )
        check_resume(ckpt, **good)  # the matching search passes
        for field, wrong in (
            ("kind", "multi-seed"),
            ("graph", "other-net"),
            ("mode", "cpu"),
            ("episodes", 61),
            ("seeds", [4]),
        ):
            with pytest.raises(CheckpointError):
                check_resume(ckpt, **{**good, field: wrong})
        # An episode index outside (0, episodes) cannot resume.
        with pytest.raises(CheckpointError, match="outside"):
            check_resume(dict(ckpt, episode=60), **good)

    @pytest.mark.parametrize("seeds,kernel", [
        (None, "reference"),  # the scalar kind of a single-seed search
        ([3, 4], "reference"),  # scalar with replay, vectorized without
        ([3, 4], "mega"),
    ])
    @pytest.mark.parametrize("captured,resumed", [
        (dict(replay_enabled=True), dict(replay_enabled=False)),
        (dict(replay_enabled=False), dict(replay_enabled=True)),
        (dict(replay_capacity=128), dict(replay_capacity=8)),
        (dict(), dict(first_visit_bootstrap=True)),
        (dict(first_visit_bootstrap=True), dict()),
        (
            dict(replay_enabled=False),
            dict(replay_enabled=False, first_visit_bootstrap=True),
        ),
    ])
    def test_resume_rejects_state_of_another_config(
        self, seeds, kernel, captured, resumed
    ):
        """The learning state must fit the resuming search: a replay
        ring exactly when replay is on, filled as far as the episode
        index says, and Q/row-max/visited blocks of its layout."""
        lut = synthetic_chain_lut(5, 3, seed=21)
        ckpt = _capture_at(lut, _config(kernel=kernel, **captured), 40, seeds)
        with pytest.raises(CheckpointError):
            _search(lut, _config(kernel=kernel, **resumed), seeds).run(
                resume=ckpt
            )

    def test_warm_checkpoints_record_the_kind(self):
        """A warm run's checkpoint names its prior kind; a cold run's
        omits the key entirely (byte-identical to pre-prior captures),
        and resuming across the warm/cold boundary is refused."""
        from repro.core.priors import SchedulePrior

        lut = synthetic_chain_lut(3, 2, seed=5)
        probe = QSDNNSearch(lut, _config(episodes=8, seed=9)).run()
        prior = SchedulePrior(probe.best_assignments)

        cold_ckpt = _capture_at(lut, _config(), episode=2)
        assert "warm_start" not in cold_ckpt

        def stop(ckpt: dict):
            return ckpt["episode"] < 2

        with pytest.raises(PreemptedError) as exc:
            QSDNNSearch(
                lut, _config(warm_start="stored"), prior=prior
            ).run(checkpoint_every=1, on_checkpoint=stop)
        warm_ckpt = decode_checkpoint(encode_checkpoint(exc.value.checkpoint))
        assert warm_ckpt["warm_start"] == "stored"

        with pytest.raises(CheckpointError, match="warm_start"):
            QSDNNSearch(lut, _config()).run(resume=warm_ckpt)
        with pytest.raises(CheckpointError, match="warm_start"):
            QSDNNSearch(
                lut, _config(warm_start="stored"), prior=prior
            ).run(resume=cold_ckpt)

    def test_capture_requires_valid_interval(self):
        lut = synthetic_chain_lut(4, 2, seed=0)
        with pytest.raises(ConfigError, match="checkpoint_every"):
            QSDNNSearch(lut, _config()).run(
                checkpoint_every=0, on_checkpoint=lambda c: True
            )

    def test_preempted_error_survives_pickling(self):
        # The local pool raises it inside a ProcessPoolExecutor worker.
        import pickle

        lut = synthetic_chain_lut(4, 2, seed=0)
        ckpt = _capture_at(lut, _config(), 10)
        error = pickle.loads(pickle.dumps(PreemptedError(ckpt)))
        assert isinstance(error, PreemptedError)
        assert error.checkpoint == ckpt


class TestCheckpointingIsFree:
    def test_observer_does_not_perturb_the_search(self):
        """A checkpointing run (callback returning True) is bitwise
        identical to a plain run — capture draws no RNG."""
        lut = synthetic_chain_lut(6, 3, seed=5)
        plain = QSDNNSearch(lut, _config()).run()
        seen = []

        def observe(ckpt: dict):
            seen.append(ckpt["episode"])
            return True

        observed = QSDNNSearch(lut, _config()).run(
            checkpoint_every=7, on_checkpoint=observe
        )
        assert observed.best_ms == plain.best_ms
        assert observed.curve_ms == plain.curve_ms
        assert observed.best_assignments == plain.best_assignments
        assert observed.greedy_ms == plain.greedy_ms
        # Boundaries at multiples of 7, never the final episode.
        assert seen == [e for e in range(7, 60, 7)]


class TestResumeBitwise:
    def test_search_resume_matches_uninterrupted(self):
        lut = synthetic_chain_lut(6, 3, seed=9)
        plain = QSDNNSearch(lut, _config()).run()
        ckpt = _capture_at(lut, _config(), 24)
        resumed = QSDNNSearch(lut, _config()).run(resume=ckpt)
        assert resumed.best_ms == plain.best_ms
        assert resumed.curve_ms == plain.curve_ms
        assert resumed.epsilon_trace == plain.epsilon_trace
        assert resumed.best_assignments == plain.best_assignments
        assert resumed.greedy_ms == plain.greedy_ms

    def test_final_internal_state_matches(self):
        """Beyond the result: the *entire* search state at a later
        boundary (flat Q, ring, RNG streams, best tracking) is equal
        whether or not the run was interrupted in between."""
        lut = synthetic_chain_lut(5, 4, seed=2)
        late: list[dict] = []

        def keep(ckpt: dict):
            late.append(ckpt)
            return True

        QSDNNSearch(lut, _config()).run(checkpoint_every=25, on_checkpoint=keep)
        plain_state = late[-1]
        assert plain_state["episode"] == 50
        early = _capture_at(lut, _config(), 25)
        late.clear()
        QSDNNSearch(lut, _config()).run(
            checkpoint_every=25, on_checkpoint=keep, resume=early
        )
        resumed_state = late[-1]
        assert resumed_state["episode"] == 50
        assert _strip_elapsed(resumed_state) == _strip_elapsed(plain_state)

    def test_double_interruption_composes(self):
        lut = synthetic_chain_lut(5, 3, seed=13)
        plain = QSDNNSearch(lut, _config()).run()
        first = _capture_at(lut, _config(), 10)

        def stop_again(ckpt: dict):
            return ckpt["episode"] < 40

        with pytest.raises(PreemptedError) as exc:
            QSDNNSearch(lut, _config()).run(
                checkpoint_every=1, on_checkpoint=stop_again, resume=first
            )
        second = decode_checkpoint(encode_checkpoint(exc.value.checkpoint))
        assert second["episode"] == 40
        resumed = QSDNNSearch(lut, _config()).run(resume=second)
        assert resumed.best_ms == plain.best_ms
        assert resumed.curve_ms == plain.curve_ms

    def test_multi_seed_resume_matches(self):
        lut = synthetic_chain_lut(5, 3, seed=21)
        seeds = seed_range(3, 3)
        plain = MultiSeedSearch(lut, _config(), seeds=seeds).run()

        def stop(ckpt: dict):
            return ckpt["episode"] < 30

        with pytest.raises(PreemptedError) as exc:
            MultiSeedSearch(lut, _config(), seeds=seeds).run(
                checkpoint_every=10, on_checkpoint=stop
            )
        ckpt = decode_checkpoint(encode_checkpoint(exc.value.checkpoint))
        assert [s["seed"] for s in ckpt["seeds"]] == seeds
        resumed = MultiSeedSearch(lut, _config(), seeds=seeds).run(resume=ckpt)
        for a, b in zip(plain.results, resumed.results):
            assert a.best_ms == b.best_ms
            assert a.curve_ms == b.curve_ms
            assert a.best_assignments == b.best_assignments

    @pytest.mark.parametrize("capture_kernel,resume_kernel", [
        ("reference", "mega"),
        ("mega", "reference"),
    ])
    def test_cross_backend_resume(self, capture_kernel, resume_kernel):
        """A checkpoint captured under one backend resumes under
        another, bitwise — the format is backend-neutral."""
        lut = synthetic_chain_lut(5, 3, seed=8)
        seeds = seed_range(0, 3)
        plain = MultiSeedSearch(
            lut, _config(kernel=resume_kernel), seeds=seeds
        ).run()

        def stop(ckpt: dict):
            return ckpt["episode"] < 20

        with pytest.raises(PreemptedError) as exc:
            MultiSeedSearch(
                lut, _config(kernel=capture_kernel), seeds=seeds
            ).run(checkpoint_every=10, on_checkpoint=stop)
        ckpt = decode_checkpoint(encode_checkpoint(exc.value.checkpoint))
        resumed = MultiSeedSearch(
            lut, _config(kernel=resume_kernel), seeds=seeds
        ).run(resume=ckpt)
        for a, b in zip(plain.results, resumed.results):
            assert a.best_ms == b.best_ms
            assert a.curve_ms == b.curve_ms

    @needs_numba
    @pytest.mark.parametrize("capture_kernel,resume_kernel", [
        ("numba", "reference"),
        ("reference", "numba"),
    ])
    def test_cross_backend_resume_numba(self, capture_kernel, resume_kernel):
        lut = synthetic_chain_lut(5, 3, seed=8)
        plain = QSDNNSearch(lut, _config(kernel=resume_kernel)).run()
        ckpt = _capture_at(lut, _config(kernel=capture_kernel), 20)
        resumed = QSDNNSearch(lut, _config(kernel=resume_kernel)).run(
            resume=ckpt
        )
        assert resumed.best_ms == plain.best_ms
        assert resumed.curve_ms == plain.curve_ms


class TestResumeProperties:
    @given(
        num_layers=st.integers(min_value=2, max_value=6),
        num_actions=st.integers(min_value=2, max_value=4),
        lut_seed=st.integers(min_value=0, max_value=10_000),
        seed=st.integers(min_value=0, max_value=100),
        episodes=st.integers(min_value=24, max_value=90),
        boundary=st.integers(min_value=1, max_value=89),
        replay=st.booleans(),
        fvb=st.booleans(),
        warm=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_search_resume_bitwise_anywhere(
        self, num_layers, num_actions, lut_seed, seed, episodes,
        boundary, replay, fvb, warm,
    ):
        """Preempt at *any* episode boundary under any config — warm
        starts included: the resumed run's result is bitwise the
        uninterrupted one's."""
        boundary = 1 + boundary % (episodes - 1)  # in (0, episodes)
        lut = synthetic_chain_lut(num_layers, num_actions, seed=lut_seed)
        prior = None
        if warm:
            from repro.core.priors import SchedulePrior

            probe = QSDNNSearch(
                lut, _config(episodes=8, seed=seed + 1000)
            ).run()
            prior = SchedulePrior(probe.best_assignments)

        def config() -> SearchConfig:
            return _config(
                episodes=episodes, seed=seed,
                replay_enabled=replay, first_visit_bootstrap=fvb,
                warm_start="stored" if warm else "off",
            )

        plain = QSDNNSearch(lut, config(), prior=prior).run()

        def stop(ckpt: dict):
            return ckpt["episode"] < boundary

        with pytest.raises(PreemptedError) as exc:
            QSDNNSearch(lut, config(), prior=prior).run(
                checkpoint_every=1, on_checkpoint=stop
            )
        ckpt = decode_checkpoint(encode_checkpoint(exc.value.checkpoint))
        assert ckpt["episode"] == boundary
        resumed = QSDNNSearch(lut, config(), prior=prior).run(resume=ckpt)
        assert resumed.best_ms == plain.best_ms
        assert resumed.curve_ms == plain.curve_ms
        assert resumed.best_assignments == plain.best_assignments
        assert resumed.warm_start == ("stored" if warm else "off")

    @given(
        lut_seed=st.integers(min_value=0, max_value=10_000),
        num_seeds=st.integers(min_value=2, max_value=4),
        boundary=st.integers(min_value=1, max_value=59),
        replay=st.booleans(),
        capture_mega=st.booleans(),
        resume_mega=st.booleans(),
        warm=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_multi_seed_cross_backend_resume_bitwise(
        self, lut_seed, num_seeds, boundary, replay, capture_mega,
        resume_mega, warm,
    ):
        lut = synthetic_chain_lut(4, 3, seed=lut_seed)
        seeds = seed_range(0, num_seeds)
        prior = None
        if warm:
            from repro.core.priors import SchedulePrior

            probe = QSDNNSearch(lut, _config(episodes=8, seed=777)).run()
            prior = SchedulePrior(probe.best_assignments)

        def config(mega: bool) -> SearchConfig:
            return _config(
                replay_enabled=replay,
                kernel="mega" if mega else "reference",
                warm_start="stored" if warm else "off",
            )

        def search(mega: bool) -> MultiSeedSearch:
            return MultiSeedSearch(
                lut, config(mega), seeds=seeds, prior=prior
            )

        plain = search(resume_mega).run()

        def stop(ckpt: dict):
            return ckpt["episode"] < boundary

        with pytest.raises(PreemptedError) as exc:
            search(capture_mega).run(checkpoint_every=1, on_checkpoint=stop)
        ckpt = decode_checkpoint(encode_checkpoint(exc.value.checkpoint))
        resumed = search(resume_mega).run(resume=ckpt)
        for a, b in zip(plain.results, resumed.results):
            assert a.best_ms == b.best_ms
            assert a.curve_ms == b.curve_ms
