"""Integration tests: the full two-phase pipeline and the paper's
qualitative claims on small networks (the full-size claims live in the
benchmark harnesses)."""

from __future__ import annotations

import pytest

from repro import (
    InferenceEngineOptimizer,
    Mode,
    QSDNNSearch,
    SearchConfig,
    build_network,
    jetson_tx2,
)
from repro.baselines import (
    best_single_library,
    greedy_per_layer,
    pbqp_solve,
    random_search,
)
from repro.hw.presets import raspberry_pi3
from repro.hw.processor import ProcessorKind

from tests.helpers import enumerate_optimum


class TestTwoPhasePipeline:
    def test_full_flow_lenet(self):
        platform = jetson_tx2()
        graph = build_network("lenet5")
        optimizer = InferenceEngineOptimizer(graph, platform, mode=Mode.GPGPU, seed=0)
        lut = optimizer.profile()
        result = QSDNNSearch(lut, SearchConfig(episodes=400, seed=0)).run()
        report = optimizer.deploy(result.schedule())
        # Deployment (fresh measurements) agrees with the LUT objective.
        assert report.total_ms == pytest.approx(result.best_ms, rel=0.1)

    def test_search_runs_without_platform_access(self, lenet_lut_gpgpu):
        """Phase separation: the search needs only the (serialized) LUT."""
        from repro.engine.lut import LatencyTable

        clone = LatencyTable.from_json(lenet_lut_gpgpu.to_json())
        result = QSDNNSearch(clone, SearchConfig(episodes=200, seed=0)).run()
        assert result.best_ms > 0

    def test_cpu_only_platform_end_to_end(self):
        platform = raspberry_pi3()
        graph = build_network("lenet5")
        optimizer = InferenceEngineOptimizer(graph, platform, mode=Mode.CPU, seed=0)
        lut = optimizer.profile()
        result = QSDNNSearch(lut, SearchConfig(episodes=200, seed=0)).run()
        assert result.best_ms > 0
        procs = {lut.meta[u].processor for u in result.best_assignments.values()}
        assert procs == {ProcessorKind.CPU}


class TestPaperClaimsSmall:
    """Fast versions of §VI claims (LeNet/toy scale)."""

    def test_lenet_gpgpu_optimum_is_pure_cpu(self, lenet_lut_gpgpu):
        """§VI-A: 'the fastest implementation for Lenet-5 in GPGPU mode
        is actually a pure CPU implementation'."""
        optimum = pbqp_solve(lenet_lut_gpgpu)
        procs = {
            lenet_lut_gpgpu.meta[u].processor
            for u in optimum.best_assignments.values()
        }
        assert procs == {ProcessorKind.CPU}

    def test_qsdnn_beats_bsl_lenet(self, lenet_lut_gpgpu):
        rl = QSDNNSearch(
            lenet_lut_gpgpu, SearchConfig(episodes=400, seed=0)
        ).run()
        bsl = best_single_library(lenet_lut_gpgpu)
        assert rl.best_ms < bsl.total_ms

    def test_qsdnn_matches_exact_optimum_lenet(self, lenet_lut_gpgpu):
        rl = QSDNNSearch(
            lenet_lut_gpgpu, SearchConfig(episodes=600, seed=0)
        ).run()
        exact = pbqp_solve(lenet_lut_gpgpu)
        assert rl.best_ms <= exact.best_ms * 1.02

    def test_qsdnn_beats_rs_at_equal_budget(self, lenet_lut_gpgpu):
        rl = QSDNNSearch(
            lenet_lut_gpgpu, SearchConfig(episodes=300, seed=1)
        ).run()
        rs = random_search(lenet_lut_gpgpu, episodes=300, seed=1)
        assert rl.best_ms <= rs.best_ms

    def test_toy_qsdnn_equals_enumeration(self, toy_lut_gpgpu):
        rl = QSDNNSearch(toy_lut_gpgpu, SearchConfig(episodes=400, seed=0)).run()
        exact = enumerate_optimum(toy_lut_gpgpu)
        assert rl.best_ms == pytest.approx(exact.best_ms, rel=1e-6)

    def test_greedy_no_better_than_qsdnn(self, lenet_lut_gpgpu):
        rl = QSDNNSearch(
            lenet_lut_gpgpu, SearchConfig(episodes=600, seed=0)
        ).run()
        greedy = greedy_per_layer(lenet_lut_gpgpu)
        assert rl.best_ms <= greedy.best_ms + 1e-9

    def test_pbqp_and_qsdnn_agree_on_lenet(self, lenet_lut_gpgpu):
        rl = QSDNNSearch(
            lenet_lut_gpgpu, SearchConfig(episodes=600, seed=0)
        ).run()
        pb = pbqp_solve(lenet_lut_gpgpu)
        assert rl.best_ms == pytest.approx(pb.best_ms, rel=0.02)


class TestAlexNetFCStory:
    """§VI-A: cuDNN lacks FC, so QS-DNN routes FC through cuBLAS."""

    @pytest.fixture(scope="class")
    def alexnet_lut(self):
        platform = jetson_tx2()
        graph = build_network("alexnet")
        return InferenceEngineOptimizer(
            graph, platform, mode=Mode.GPGPU, seed=0
        ).profile()

    def test_qsdnn_routes_fc_through_cublas(self, alexnet_lut):
        optimum = pbqp_solve(alexnet_lut)
        for fc in ("fc6", "fc7", "fc8"):
            assert optimum.best_assignments[fc] == "cublas.gemv.sgemv"

    def test_qsdnn_much_faster_than_cudnn_alone(self, alexnet_lut):
        from repro.baselines.best_single_library import single_library_schedule

        cudnn_only = single_library_schedule(alexnet_lut, "cudnn")
        optimum = pbqp_solve(alexnet_lut)
        assert cudnn_only.total_ms / optimum.best_ms > 3.0

    def test_convs_stay_on_gpu(self, alexnet_lut):
        optimum = pbqp_solve(alexnet_lut)
        for conv in ("conv2", "conv3", "conv4", "conv5"):
            meta = alexnet_lut.meta[optimum.best_assignments[conv]]
            assert meta.processor is ProcessorKind.GPU


class TestCrossPlatform:
    def test_different_platforms_different_schedules(self):
        """Portability: the same network tunes differently per platform."""
        graph_name = "lenet5"
        results = {}
        for platform in (jetson_tx2(), raspberry_pi3()):
            graph = build_network(graph_name)
            opt = InferenceEngineOptimizer(graph, platform, mode=Mode.CPU, seed=0)
            lut = opt.profile()
            results[platform.name] = pbqp_solve(lut).best_ms
        # The Pi is strictly slower end-to-end.
        assert results["raspberry_pi3"] > results["jetson_tx2"]
