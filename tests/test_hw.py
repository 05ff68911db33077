"""Tests for the hardware substrate (processors, transfers, noise)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlatformError
from repro.hw import (
    NoiseModel,
    Platform,
    ProcessorKind,
    ProcessorModel,
    TransferModel,
    jetson_tx2,
    jetson_tx2_maxn,
    raspberry_pi3,
)
from repro.hw.presets import cpu_only
from repro.utils.rng import derive_rng


def cpu_model(**overrides):
    params = dict(
        name="cpu", kind=ProcessorKind.CPU, peak_gflops=16.0,
        mem_bandwidth_gbs=8.0, overhead_ms=0.001,
    )
    params.update(overrides)
    return ProcessorModel(**params)


class TestProcessorModel:
    def test_compute_time(self):
        proc = cpu_model()
        # 16 GFLOP at full efficiency on 16 GFLOP/s = 1 s = 1000 ms.
        assert proc.compute_ms(16e9, 1.0) == pytest.approx(1000.0)

    def test_memory_time(self):
        proc = cpu_model()
        assert proc.memory_ms(8e9, 1.0) == pytest.approx(1000.0)

    def test_roofline_takes_max(self):
        proc = cpu_model()
        compute_bound = proc.roofline_ms(16e9, 8, 1.0, 1.0)
        memory_bound = proc.roofline_ms(16, 8e9, 1.0, 1.0)
        assert compute_bound == pytest.approx(1000.0 + proc.overhead_ms)
        assert memory_bound == pytest.approx(1000.0 + proc.overhead_ms)

    def test_roofline_adds_overhead_per_invocation(self):
        proc = cpu_model(overhead_ms=0.5)
        one = proc.roofline_ms(1e6, 1e3, 1.0, 1.0, invocations=1)
        two = proc.roofline_ms(1e6, 1e3, 1.0, 1.0, invocations=2)
        assert two - one == pytest.approx(0.5)

    def test_lower_efficiency_is_slower(self):
        proc = cpu_model()
        assert proc.compute_ms(1e9, 0.5) > proc.compute_ms(1e9, 1.0)

    @pytest.mark.parametrize("eff", [0.0, -1.0, 1.5])
    def test_bad_efficiency_rejected(self, eff):
        with pytest.raises(PlatformError):
            cpu_model().compute_ms(1e9, eff)

    def test_negative_flops_rejected(self):
        with pytest.raises(PlatformError):
            cpu_model().compute_ms(-1.0, 1.0)

    def test_invalid_peak_rejected(self):
        with pytest.raises(PlatformError):
            cpu_model(peak_gflops=0.0)

    def test_str_mentions_name(self):
        assert "cpu" in str(cpu_model())


class TestTransferModel:
    def test_latency_plus_bandwidth(self):
        t = TransferModel(latency_ms=0.1, bandwidth_gbs=1.0)
        # 1 GB at 1 GB/s = 1000 ms, plus latency.
        assert t.transfer_ms(1e9) == pytest.approx(1000.1)

    def test_zero_bytes_costs_latency(self):
        t = TransferModel(latency_ms=0.1, bandwidth_gbs=1.0)
        assert t.transfer_ms(0) == pytest.approx(0.1)

    def test_negative_bytes_rejected(self):
        with pytest.raises(PlatformError):
            TransferModel(0.1, 1.0).transfer_ms(-1)

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(PlatformError):
            TransferModel(latency_ms=0.0, bandwidth_gbs=0.0)


class TestNoiseModel:
    def test_zero_sigma_is_exact(self):
        rng = derive_rng(0, "t")
        assert NoiseModel(0.0).sample(5.0, rng) == 5.0

    def test_noise_is_positive(self):
        noise = NoiseModel(0.5)
        rng = derive_rng(0, "t")
        assert all(noise.sample(1.0, rng) > 0 for _ in range(100))

    def test_mean_one_property(self):
        noise = NoiseModel(0.1)
        rng = derive_rng(0, "t")
        samples = [noise.sample(1.0, rng) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(1.0, rel=0.02)

    def test_sample_mean_tighter_than_single(self):
        noise = NoiseModel(0.2)
        rng_a = derive_rng(0, "a")
        rng_b = derive_rng(0, "b")
        singles = [abs(noise.sample(1.0, rng_a) - 1.0) for _ in range(300)]
        means = [abs(noise.sample_mean(1.0, rng_b, 50) - 1.0) for _ in range(300)]
        assert np.mean(means) < np.mean(singles)

    def test_negative_sigma_rejected(self):
        with pytest.raises(PlatformError):
            NoiseModel(-0.1)

    def test_bad_repeats_rejected(self):
        with pytest.raises(PlatformError):
            NoiseModel(0.1).sample_mean(1.0, derive_rng(0, "t"), 0)

    def test_negative_true_ms_rejected(self):
        with pytest.raises(PlatformError):
            NoiseModel(0.1).sample(-1.0, derive_rng(0, "t"))


class TestBlockDraw:
    """``sample_means`` draws one ``(n, repeats)`` block; it must equal
    ``n`` one-measurement draws in values and in the generator's final
    state."""

    @settings(max_examples=60, deadline=None)
    @given(
        repeats=st.sampled_from([1, 7, 8, 9, 50, 128, 129]),
        height=st.integers(1, 64),
        sigma=st.sampled_from([0.03, 0.2, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_equals_a_loop_of_single_draws(self, repeats, height, sigma, seed):
        noise = NoiseModel(sigma)
        true_ms = np.random.default_rng(seed).uniform(0.0, 100.0, height).tolist()
        block_rng, loop_rng, ref_rng = (derive_rng(seed, "noise") for _ in range(3))
        block = noise.sample_means(true_ms, block_rng, repeats).tolist()
        loop = [noise.sample_mean(ms, loop_rng, repeats) for ms in true_ms]
        # The reference draw, written out: one mean of `repeats` factors.
        reference = [
            ms * float(np.exp(ref_rng.normal(-0.5 * sigma**2, sigma, repeats)).mean())
            for ms in true_ms
        ]
        assert block == loop == reference
        state = block_rng.bit_generator.state
        assert state == loop_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_zero_sigma_consumes_no_entropy(self):
        rng = derive_rng(0, "t")
        before = rng.bit_generator.state
        out = NoiseModel(0.0).sample_means([1.5, 0.0, 7.0], rng, 50)
        assert out.tolist() == [1.5, 0.0, 7.0]
        assert NoiseModel(0.0).sample_mean(2.5, rng, 50) == 2.5
        assert rng.bit_generator.state == before

    def test_bad_repeats_rejected(self):
        for sigma in (0.0, 0.1):
            with pytest.raises(PlatformError):
                NoiseModel(sigma).sample_means([1.0, 2.0], derive_rng(0, "t"), 0)


class TestPlatform:
    def test_tx2_has_both_processors(self):
        plat = jetson_tx2()
        assert plat.has(ProcessorKind.CPU) and plat.has(ProcessorKind.GPU)

    def test_tx2_gpu_faster_peak(self):
        plat = jetson_tx2()
        assert (
            plat.processor(ProcessorKind.GPU).peak_gflops
            > plat.cpu.peak_gflops * 10
        )

    def test_cpu_only_strips_gpu(self):
        plat = cpu_only(jetson_tx2())
        assert not plat.has(ProcessorKind.GPU)

    def test_cpu_only_transfer_raises(self):
        plat = cpu_only(jetson_tx2())
        with pytest.raises(PlatformError):
            plat.transfer_ms(1000)

    def test_missing_processor_lookup_raises(self):
        plat = raspberry_pi3()
        with pytest.raises(PlatformError):
            plat.processor(ProcessorKind.GPU)

    def test_gpu_without_transfer_rejected(self):
        gpu = ProcessorModel(
            name="gpu", kind=ProcessorKind.GPU, peak_gflops=100.0,
            mem_bandwidth_gbs=10.0, overhead_ms=0.01,
        )
        with pytest.raises(PlatformError):
            Platform(name="bad", processors=(cpu_model(), gpu), transfer=None)

    def test_cpu_required(self):
        gpu = ProcessorModel(
            name="gpu", kind=ProcessorKind.GPU, peak_gflops=100.0,
            mem_bandwidth_gbs=10.0, overhead_ms=0.01,
        )
        with pytest.raises(PlatformError):
            Platform(
                name="bad", processors=(gpu,),
                transfer=TransferModel(0.01, 1.0),
            )

    def test_duplicate_kinds_rejected(self):
        with pytest.raises(PlatformError):
            Platform(name="bad", processors=(cpu_model(), cpu_model()))

    def test_maxn_is_faster_than_maxq(self):
        maxq = jetson_tx2()
        maxn = jetson_tx2_maxn()
        assert (
            maxn.processor(ProcessorKind.GPU).peak_gflops
            > maxq.processor(ProcessorKind.GPU).peak_gflops
        )

    def test_pi3_slower_than_tx2_cpu(self):
        assert raspberry_pi3().cpu.peak_gflops < jetson_tx2().cpu.peak_gflops

    def test_platform_str(self):
        assert "jetson_tx2" in str(jetson_tx2())
