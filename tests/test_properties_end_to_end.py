"""End-to-end property tests on randomly generated networks.

A hypothesis strategy builds small random-but-valid CNNs; the whole
pipeline (profiling -> LUT -> searches -> deployment) must uphold its
invariants on every one of them, not just on the zoo.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Mode, jetson_tx2
from repro.backends import design_space
from repro.baselines import PBQPSolver, random_search
from repro.core import QSDNNSearch, SearchConfig
from repro.core.polish import coordinate_descent
from repro.engine import Executor, Profiler
from repro.engine.schedule import vanilla_schedule
from repro.nn.builder import NetworkBuilder
from repro.nn.tensor import TensorShape

_QUIET = jetson_tx2(noise_sigma=0.0)
_NOISY = jetson_tx2()


@st.composite
def random_network(draw):
    """A small random valid CNN (chain with an optional branch)."""
    channels = draw(st.sampled_from([1, 3, 8]))
    size = draw(st.sampled_from([8, 12, 16]))
    b = NetworkBuilder(f"rand_{draw(st.integers(0, 10**6))}",
                       TensorShape(channels, size, size))
    depth = draw(st.integers(min_value=2, max_value=6))
    branch_at = draw(st.integers(min_value=-1, max_value=depth - 1))
    for i in range(depth):
        op = draw(st.sampled_from(["conv3", "conv1", "dw", "relu", "bn", "pool"]))
        current = b.output_shape(b.cursor)
        if op == "conv3":
            b.conv(f"l{i}_conv3", out_channels=draw(st.sampled_from([4, 8, 16])),
                   kernel=3, padding=1)
        elif op == "conv1":
            b.conv(f"l{i}_conv1", out_channels=draw(st.sampled_from([4, 8, 16])),
                   kernel=1)
        elif op == "dw":
            b.depthwise(f"l{i}_dw", kernel=3, padding=1)
        elif op == "relu":
            b.relu(f"l{i}_relu")
        elif op == "bn":
            b.batch_norm(f"l{i}_bn")
        elif op == "pool" and current.height >= 4:
            b.pool_max(f"l{i}_pool", kernel=2)
        else:
            b.relu(f"l{i}_relu")
        if i == branch_at:
            trunk = b.cursor
            left = b.conv(f"br{i}_a", out_channels=4, kernel=1, after=trunk)
            right = b.conv(f"br{i}_b", out_channels=4, kernel=1, after=trunk)
            b.concat(f"br{i}_cat", inputs=[left, right])
    b.fc("head", out_channels=10)
    return b.build()


def _profile(graph, platform, repeats=3, seed=0):
    space = design_space(Mode.GPGPU, platform)
    profiler = Profiler(graph, space, platform, seed=seed, repeats=repeats)
    lut, report = profiler.profile()
    return space, lut, report


class TestPipelineProperties:
    @given(graph=random_network())
    @settings(max_examples=12, deadline=None)
    def test_lut_complete_and_positive(self, graph):
        _, lut, report = _profile(graph, _QUIET)
        for layer, uids in lut.candidates.items():
            assert uids, layer
            for uid in uids:
                assert lut.layer_time(layer, uid) > 0
        assert report.network_inferences >= 1
        assert report.compatibility_passes == 1

    @given(graph=random_network(), seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_search_result_consistent(self, graph, seed):
        _, lut, _ = _profile(graph, _QUIET)
        result = QSDNNSearch(
            lut, SearchConfig(episodes=120, seed=seed)
        ).run()
        assert lut.schedule_time(result.best_assignments) == pytest.approx(
            result.best_ms
        )
        assert result.best_ms <= random_search(lut, 120, seed=seed).best_ms + 1e-9

    @given(graph=random_network())
    @settings(max_examples=10, deadline=None)
    def test_exact_solver_proven_and_one_opt(self, graph):
        _, lut, _ = _profile(graph, _QUIET)
        solver = PBQPSolver(lut)
        pb = solver.solve()
        assert solver.proven
        assert lut.schedule_time(pb.best_assignments) == pytest.approx(pb.best_ms)
        idx = lut.indexed()
        start = np.array(
            [lut.candidates[l].index(pb.best_assignments[l]) for l in lut.layers],
            dtype=np.int64,
        )
        _, polished = coordinate_descent(idx, start, max_sweeps=2)
        assert polished >= pb.best_ms - 1e-9

    @given(graph=random_network())
    @settings(max_examples=8, deadline=None)
    def test_deployment_matches_lut_noiselessly(self, graph):
        space, lut, _ = _profile(graph, _QUIET)
        executor = Executor(graph, space, _QUIET)
        result = QSDNNSearch(lut, SearchConfig(episodes=80, seed=0)).run()
        measured = executor.run(result.schedule()).total_ms
        assert measured == pytest.approx(result.best_ms, rel=1e-9)

    @given(graph=random_network())
    @settings(max_examples=8, deadline=None)
    def test_vanilla_never_beats_search(self, graph):
        space, lut, _ = _profile(graph, _QUIET)
        vanilla = vanilla_schedule(graph, space)
        vanilla_ms = lut.schedule_time(vanilla.assignments)
        result = QSDNNSearch(lut, SearchConfig(episodes=150, seed=0)).run()
        assert result.best_ms <= vanilla_ms + 1e-9

    @given(graph=random_network(), seed=st.integers(0, 20))
    @settings(max_examples=8, deadline=None)
    def test_noisy_profiles_stay_close_to_quiet(self, graph, seed):
        _, quiet_lut, _ = _profile(graph, _QUIET, repeats=1, seed=seed)
        _, noisy_lut, _ = _profile(graph, _NOISY, repeats=50, seed=seed)
        for layer in quiet_lut.layers:
            for uid in quiet_lut.candidates[layer]:
                true = quiet_lut.layer_time(layer, uid)
                measured = noisy_lut.layer_time(layer, uid)
                assert measured == pytest.approx(true, rel=0.06)
