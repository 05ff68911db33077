"""Tests for the latency table, profiler and compatibility profiling."""

from __future__ import annotations

import pytest

from repro.backends import Mode, gpgpu_space
from repro.engine import InferenceEngineOptimizer, Profiler
from repro.engine.compat import profile_compatibility
from repro.engine.lut import LatencyTable
from repro.engine.pricing import CostEngine
from repro.engine.schedule import NetworkSchedule
from repro.errors import LookupError_, ProfilingError, ScheduleError
from repro.hw import jetson_tx2
from repro.hw.processor import ProcessorKind
from repro.utils.rng import RngStream
from repro.zoo import available_networks, build_network

from tests.helpers import oracle_measure, oracle_profile, synthetic_chain_lut


class TestLatencyTableLookups:
    def test_layer_time_present(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        assert lut.layer_time("conv1", "vanilla.direct.conv") > 0

    def test_missing_pair_raises(self, lenet_lut_gpgpu):
        with pytest.raises(LookupError_):
            lenet_lut_gpgpu.layer_time("conv1", "cublas.gemv.sgemv")

    def test_missing_layer_raises(self, lenet_lut_gpgpu):
        with pytest.raises(LookupError_):
            lenet_lut_gpgpu.layer_time("ghost", "vanilla.direct.conv")

    def test_best_uid_is_fastest(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        best = lut.best_uid("conv2")
        assert all(
            lut.layer_time("conv2", best) <= lut.layer_time("conv2", u)
            for u in lut.candidates["conv2"]
        )

    def test_best_uid_within_subset(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        vans = {u for u in lut.candidates["conv1"] if u.startswith("vanilla")}
        assert lut.best_uid("conv1", within=vans) in vans

    def test_best_uid_empty_subset_raises(self, lenet_lut_gpgpu):
        with pytest.raises(LookupError_):
            lenet_lut_gpgpu.best_uid("conv1", within={"nope"})

    def test_penalty_same_proc_same_layout_zero(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        edge = ("conv1", "pool1")
        p = lut.penalty(edge, "vanilla.direct.conv", "vanilla.direct.pool")
        assert p == 0.0

    def test_penalty_processor_switch_positive(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        edge = ("conv1", "pool1")
        p = lut.penalty(edge, "vanilla.direct.conv", "cudnn.direct.pool")
        assert p > 0.0

    def test_penalty_layout_switch_positive(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        edge = ("conv1", "pool1")
        p = lut.penalty(edge, "armcl.gemm.neon", "vanilla.direct.pool")
        assert p > 0.0

    def test_penalty_layout_free_for_degenerate_tensor(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        # ip1 output is 500x1x1: layouts coincide, conversion is free.
        edge = ("ip1", "relu1")
        p = lut.penalty(edge, "armcl.gemv.neon", "vanilla.direct.eltwise")
        assert p == 0.0

    def test_schedule_time_matches_manual_sum(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        assignments = {l: lut.candidates[l][0] for l in lut.layers}
        manual = sum(lut.layer_time(l, assignments[l]) for l in lut.layers)
        manual += sum(
            lut.penalty(e, assignments[e[0]], assignments[e[1]])
            for e in lut.edges
        )
        assert lut.schedule_time(assignments) == pytest.approx(manual)

    def test_schedule_time_missing_layer_raises(self, lenet_lut_gpgpu):
        with pytest.raises(ScheduleError):
            lenet_lut_gpgpu.schedule_time({})


class TestIndexedLUT:
    def test_roundtrip_assignments(self, lenet_lut_gpgpu):
        idx = lenet_lut_gpgpu.indexed()
        import numpy as np

        choices = np.zeros(len(idx), dtype=np.int64)
        assignments = idx.assignments(choices)
        assert set(assignments) == set(lenet_lut_gpgpu.layers)

    def test_total_matches_schedule_time(self, lenet_lut_gpgpu):
        import numpy as np

        lut = lenet_lut_gpgpu
        idx = lut.indexed()
        rng = np.random.default_rng(3)
        for _ in range(10):
            choices = np.array(
                [rng.integers(n) for n in idx.num_actions], dtype=np.int64
            )
            assert idx.total_ms(choices) == pytest.approx(
                lut.schedule_time(idx.assignments(choices))
            )

    def test_edge_matrices_nonnegative(self, squeezenet_lut_gpgpu):
        idx = squeezenet_lut_gpgpu.indexed()
        for matrix in idx.edge_matrices:
            assert (matrix >= 0).all()

    def test_incoming_covers_all_edges(self, squeezenet_lut_gpgpu):
        idx = squeezenet_lut_gpgpu.indexed()
        assert sum(len(inc) for inc in idx.incoming) == len(idx.edges)


class TestPenaltyErrorConsistency:
    """Both penalty branches raise LookupError_, never a raw KeyError."""

    def test_missing_transfer_entry(self):
        lut = synthetic_chain_lut(3, 4, seed=2)
        edge = lut.edges[0]
        del lut.transfer_ms[edge]
        # prim0 (CPU) -> prim1 (GPU): processor switch needs a transfer.
        with pytest.raises(LookupError_):
            lut.penalty(edge, "prim0", "prim1")

    def test_missing_conversion_entry(self):
        lut = synthetic_chain_lut(3, 4, seed=2)
        edge = lut.edges[0]
        del lut.conversion_ms[edge]
        # prim0 (CPU/NCHW) -> prim2 (CPU/NHWC): layout switch only.
        with pytest.raises(LookupError_):
            lut.penalty(edge, "prim0", "prim2")

    def test_missing_conversion_processor(self):
        lut = synthetic_chain_lut(3, 4, seed=2)
        edge = lut.edges[0]
        del lut.conversion_ms[edge][ProcessorKind.CPU]
        with pytest.raises(LookupError_):
            lut.penalty(edge, "prim0", "prim2")


class TestSerialization:
    def test_json_roundtrip(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        clone = LatencyTable.from_json(lut.to_json())
        assert clone.layers == lut.layers
        assert clone.graph_name == lut.graph_name
        assert clone.times_ms == lut.times_ms
        assert clone.edges == lut.edges
        assert clone.transfer_ms == lut.transfer_ms

    def test_roundtrip_preserves_schedule_time(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        clone = LatencyTable.from_json(lut.to_json())
        assignments = {l: lut.best_uid(l) for l in lut.layers}
        assert clone.schedule_time(assignments) == pytest.approx(
            lut.schedule_time(assignments)
        )

    def test_synthetic_roundtrip(self):
        lut = synthetic_chain_lut(4, 3, seed=9)
        clone = LatencyTable.from_json(lut.to_json())
        assignments = {l: lut.candidates[l][1] for l in lut.layers}
        assert clone.schedule_time(assignments) == pytest.approx(
            lut.schedule_time(assignments)
        )

    def test_roundtrip_preserves_floats_bitwise(self):
        lut = synthetic_chain_lut(5, 4, seed=11)
        clone = LatencyTable.from_json(lut.to_json())
        assert clone.times_ms == lut.times_ms
        assert clone.conversion_ms == lut.conversion_ms
        assert clone.transfer_ms == lut.transfer_ms

    def test_roundtrip_preserves_layer_depth(self):
        """Regression: non-positional depths (branchy graphs) used to be
        dropped by to_json and silently revert to index order."""
        lut = synthetic_chain_lut(4, 3, seed=9)
        lut.layer_depth = {
            "layer0": 0, "layer1": 5, "layer2": 6, "layer3": 9
        }
        clone = LatencyTable.from_json(lut.to_json())
        assert clone.layer_depth == lut.layer_depth
        # And a second hop stays stable too (cache round-trips chain).
        again = LatencyTable.from_json(clone.to_json())
        assert again.layer_depth == lut.layer_depth

    def test_format1_payload_refused(self):
        """Format-1 payloads ('u->v' string edge keys, no "format"
        field) are no longer read: loading one fails loudly and names
        the format, as does any format but 2."""
        import json

        lut = synthetic_chain_lut(3, 2, seed=4)
        payload = json.loads(lut.to_json())
        del payload["format"]
        del payload["layer_depth"]
        payload["conversion_ms"] = {
            f"{u}->{v}": per_proc
            for (u, v), per_proc in payload["conversion_ms"]
        }
        payload["transfer_ms"] = {
            f"{u}->{v}": ms for (u, v), ms in payload["transfer_ms"]
        }
        with pytest.raises(ProfilingError, match="format 1"):
            LatencyTable.from_json(json.dumps(payload))
        payload = json.loads(lut.to_json())
        payload["format"] = 3
        with pytest.raises(ProfilingError, match="format 3"):
            LatencyTable.from_json(json.dumps(payload))

    def test_arrow_layer_names_rejected_on_serialize(self):
        """Names containing '->' would be ambiguous to format-1 readers
        of the payload; serialization refuses them."""
        lut = synthetic_chain_lut(3, 2, seed=4)
        lut.layers[1] = "conv->relu"
        with pytest.raises(ProfilingError):
            lut.to_json()

    def test_format2_edge_tables_survive_arrowless_roundtrip(self):
        """Format 2 stores edges as JSON arrays: the keys come back as
        exact (producer, consumer) tuples, not re-split strings."""
        import json

        lut = synthetic_chain_lut(3, 2, seed=4)
        payload = json.loads(lut.to_json())
        assert payload["format"] == 2
        assert all(
            isinstance(pair, list) and len(pair) == 2
            for pair, _ in payload["conversion_ms"]
        )
        clone = LatencyTable.from_json(json.dumps(payload))
        assert clone.conversion_ms.keys() == lut.conversion_ms.keys()


class TestProfiler:
    def test_lut_complete_for_all_candidates(self, lenet_lut_gpgpu):
        lut = lenet_lut_gpgpu
        for layer, uids in lut.candidates.items():
            for uid in uids:
                assert lut.layer_time(layer, uid) > 0

    def test_inference_count_is_primitive_types_present(self, tx2=None):
        platform = jetson_tx2()
        graph = build_network("lenet5")
        space = gpgpu_space(platform)
        profiler = Profiler(graph, space, platform, seed=0, repeats=5)
        lut, report = profiler.profile()
        # 1 vanilla pass + one per non-vanilla primitive present in LeNet.
        present = {
            p.uid
            for p in space.primitives
            if p.library != "vanilla"
            and any(p.supports(l, graph) for l in graph.layers())
        }
        assert report.network_inferences == 1 + len(present)
        assert report.compatibility_passes == 1
        assert report.total_passes == report.network_inferences + 1
        assert lut.profiling_inferences == report.network_inferences

    def test_profiling_much_cheaper_than_exhaustive(self):
        platform = jetson_tx2()
        graph = build_network("lenet5")
        space = gpgpu_space(platform)
        profiler = Profiler(graph, space, platform, seed=0, repeats=5)
        _, report = profiler.profile()
        assert report.network_inferences < 50  # vs 12^8 exhaustive configs

    def test_measurements_near_true_model(self):
        quiet = jetson_tx2(noise_sigma=0.0)
        noisy = jetson_tx2(noise_sigma=0.03)
        graph = build_network("lenet5")
        lut_q = InferenceEngineOptimizer(
            graph, quiet, mode=Mode.GPGPU, seed=0
        ).profile()
        lut_n = InferenceEngineOptimizer(
            graph, noisy, mode=Mode.GPGPU, seed=0
        ).profile()
        for layer in lut_q.layers:
            for uid in lut_q.candidates[layer]:
                true = lut_q.layer_time(layer, uid)
                measured = lut_n.layer_time(layer, uid)
                assert measured == pytest.approx(true, rel=0.05)

    def test_bad_repeats_rejected(self):
        platform = jetson_tx2()
        graph = build_network("lenet5")
        with pytest.raises(ProfilingError):
            Profiler(graph, gpgpu_space(platform), platform, repeats=0)


class TestProfilerAgainstOracle:
    """The profiler's shared schedules, candidate lists, class-priced
    board engine and block-drawn noise reproduce the naive §V-A
    profiler bit for bit, and so does deploy."""

    @pytest.mark.parametrize("network", available_networks())
    @pytest.mark.parametrize("mode", [Mode.CPU, Mode.GPGPU])
    def test_lut_report_and_deploy_equal_the_oracle(self, network, mode):
        platform = jetson_tx2()
        graph = build_network(network)
        for seed in (0, 1):
            optimizer = InferenceEngineOptimizer(graph, platform, mode=mode, seed=seed)
            lut = optimizer.profile()
            want_lut, want_report = oracle_profile(
                graph, optimizer.space, platform, seed=seed
            )
            assert lut.to_json() == want_lut.to_json()
            assert optimizer.profiling_report == want_report

            engine = lut.engine()
            schedule = NetworkSchedule(
                graph.name, engine.assignments(engine.greedy_choices())
            )
            deployed = optimizer.deploy(schedule).result
            rng = RngStream(seed, "optimizer", graph.name, str(mode)).child(
                "deploy", tuple(sorted(schedule.assignments.items()))
            )
            layer_ms, penalty_ms = oracle_measure(
                graph, optimizer.space, platform, schedule, rng, optimizer.repeats
            )
            assert deployed.layer_ms == layer_ms
            assert deployed.penalty_ms == penalty_ms


class TestBuildCounts:
    def test_profile_builds_the_vanilla_schedule_once(self, monkeypatch):
        from repro.engine import profiler, schedule

        built = []
        original = schedule.vanilla_schedule

        def counting(graph, space):
            built.append(graph.name)
            return original(graph, space)

        monkeypatch.setattr(schedule, "vanilla_schedule", counting)
        monkeypatch.setattr(profiler, "vanilla_schedule", counting)
        platform = jetson_tx2()
        graph = build_network("googlenet")
        _, report = Profiler(graph, gpgpu_space(platform), platform).profile()
        assert report.network_inferences > 10
        assert built == ["googlenet"]

    def test_profile_and_deploy_share_one_board_engine(self, monkeypatch):
        built = []
        original = CostEngine.__dict__["from_model"].__func__

        def counting(cls, executor):
            built.append(executor.graph.name)
            return original(cls, executor)

        monkeypatch.setattr(CostEngine, "from_model", classmethod(counting))
        platform = jetson_tx2()
        optimizer = InferenceEngineOptimizer(
            build_network("lenet5"), platform, mode=Mode.GPGPU
        )
        lut = optimizer.profile()
        engine = lut.engine()
        optimizer.deploy(
            NetworkSchedule(lut.graph_name, engine.assignments(engine.greedy_choices()))
        )
        assert built == ["lenet5"]


class TestCompatProfiling:
    def test_every_edge_profiled(self):
        platform = jetson_tx2()
        graph = build_network("squeezenet_v1.1")
        conversions, transfers = profile_compatibility(graph, platform)
        assert set(conversions) == set(graph.edges())
        assert set(transfers) == set(graph.edges())

    def test_cpu_only_platform_has_no_transfers(self):
        from repro.hw.presets import cpu_only

        platform = cpu_only(jetson_tx2())
        graph = build_network("lenet5")
        conversions, transfers = profile_compatibility(graph, platform)
        assert transfers == {}
        for per_proc in conversions.values():
            assert set(per_proc) == {ProcessorKind.CPU}

    def test_conversion_free_for_degenerate_edges(self):
        platform = jetson_tx2()
        graph = build_network("lenet5")
        conversions, _ = profile_compatibility(graph, platform)
        # ip1 -> relu1 carries a 500x1x1 tensor: layouts equivalent.
        assert conversions[("ip1", "relu1")][ProcessorKind.CPU] == 0.0


class TestOptimizerFacade:
    def test_profile_is_cached(self):
        platform = jetson_tx2()
        graph = build_network("lenet5")
        opt = InferenceEngineOptimizer(graph, platform, mode=Mode.GPGPU)
        assert opt.profile() is opt.profile()

    def test_deploy_report(self):
        platform = jetson_tx2()
        graph = build_network("lenet5")
        opt = InferenceEngineOptimizer(graph, platform, mode=Mode.GPGPU)
        lut = opt.profile()
        from repro.engine.schedule import vanilla_schedule

        report = opt.deploy(vanilla_schedule(graph, opt.space))
        assert report.total_ms > 0
        assert report.libraries == ["vanilla"]
        assert "Deployment" in report.render()

    def test_deploy_matches_lut_within_noise(self):
        platform = jetson_tx2()
        graph = build_network("lenet5")
        opt = InferenceEngineOptimizer(graph, platform, mode=Mode.GPGPU)
        lut = opt.profile()
        assignments = {l: lut.best_uid(l) for l in lut.layers}
        from repro.engine.schedule import NetworkSchedule

        report = opt.deploy(NetworkSchedule(graph.name, assignments))
        assert report.total_ms == pytest.approx(
            lut.schedule_time(assignments), rel=0.1
        )
