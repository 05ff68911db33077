"""The calibration contract.

Table II's *shape* rests on a small set of qualitative orderings in the
cost models.  This file pins each of them explicitly, so an accidental
recalibration that silently breaks a paper claim fails here first, with
a name that says which claim died.

Every test states the claim it protects.
"""

from __future__ import annotations

import pytest

from repro import Mode, jetson_tx2
from repro.backends import armcl, blas, cublas, cudnn, nnpack, vanilla
from repro.hw.processor import ProcessorKind
from repro.nn.builder import NetworkBuilder
from repro.nn.tensor import TensorShape
from repro.zoo import build_network


@pytest.fixture(scope="module")
def tx2():
    return jetson_tx2()


def one_layer(kind_builder, *args, **kwargs):
    """Build a one-layer graph around the given builder call."""
    input_shape = kwargs.pop("input_shape")
    b = NetworkBuilder("probe", input_shape)
    getattr(b, kind_builder)("probe_layer", *args, **kwargs)
    g = b.build(check_single_output=False)
    return g, g.layer("probe_layer")


class TestVanillaGap:
    """Claim: 'an optimized combination can achieve 45x speedup ... on
    CPU compared to a dependency-free baseline'."""

    def test_tuned_cpu_conv_is_tens_of_x_faster_than_vanilla(self, tx2):
        g, layer = one_layer(
            "conv", out_channels=256, kernel=3, padding=1,
            input_shape=TensorShape(256, 28, 28),
        )
        van = vanilla.VanillaDirectConv().estimate_ms(layer, g, tx2)
        acl = armcl.ArmclWinogradConv().estimate_ms(layer, g, tx2)
        assert 20 <= van / acl <= 120  # the 45x claim needs this window


class TestCudnnFCGap:
    """Claim: big QS-DNN wins over cuDNN on AlexNet/VGG because cuDNN
    has no FC primitive and Vanilla FC is slow."""

    def test_cublas_much_faster_than_vanilla_on_big_fc(self, tx2):
        g, layer = one_layer(
            "fc", out_channels=4096, input_shape=TensorShape(256, 6, 6)
        )
        van = vanilla.VanillaFullyConnected().estimate_ms(layer, g, tx2)
        (gemv,) = cublas.primitives()
        cub = gemv.estimate_ms(layer, g, tx2)
        assert van / cub >= 4.0

    def test_cudnn_has_no_fc(self, tx2):
        g, layer = one_layer(
            "fc", out_channels=1000, input_shape=TensorShape(1024, 1, 1)
        )
        assert not any(p.supports(layer, g) for p in cudnn.primitives())


class TestDepthwiseStory:
    """Claim: MobileNet >1.4x by pulling depth-wise layers to ArmCL."""

    @pytest.mark.parametrize("channels,size", [(128, 56), (512, 14), (1024, 7)])
    def test_armcl_dw_beats_cudnn_dw_at_mobilenet_shapes(self, tx2, channels, size):
        g, layer = one_layer(
            "depthwise", kernel=3, padding=1,
            input_shape=TensorShape(channels, size, size),
        )
        acl = armcl.ArmclDepthwiseConv().estimate_ms(layer, g, tx2)
        cud = cudnn.CudnnDepthwiseConv().estimate_ms(layer, g, tx2)
        assert acl < cud

    def test_cudnn_pointwise_beats_armcl_on_big_1x1(self, tx2):
        g, layer = one_layer(
            "conv", out_channels=512, kernel=1,
            input_shape=TensorShape(512, 14, 14),
        )
        acl = armcl.ArmclGemmConv().estimate_ms(layer, g, tx2)
        cud = cudnn.CudnnImplicitGemmConv().estimate_ms(layer, g, tx2)
        assert cud < acl


class TestLenetPureCpu:
    """Claim: LeNet-5's fastest GPGPU schedule is pure CPU (launch and
    transfer overheads dominate tiny layers)."""

    def test_gpu_launch_overhead_dominates_tiny_conv(self, tx2):
        g, layer = one_layer(
            "conv", out_channels=20, kernel=5, input_shape=TensorShape(1, 28, 28)
        )
        cud = cudnn.CudnnImplicitGemmConv().estimate_ms(layer, g, tx2)
        cpu = blas.BlasIm2colConv("openblas").estimate_ms(layer, g, tx2)
        assert cpu < cud

    def test_transfer_floor_exceeds_tiny_layer_time(self, tx2):
        tiny = TensorShape(20, 12, 12)
        transfer = tx2.transfer_ms(tiny.nbytes)
        g, layer = one_layer(
            "pool_max", kernel=2, input_shape=TensorShape(20, 24, 24)
        )
        cpu_pool = nnpack.NnpackMaxPool().estimate_ms(layer, g, tx2)
        assert transfer > cpu_pool


class TestBigConvGpuWins:
    """Claim: GPGPU-mode speedups of hundreds-x over Vanilla require the
    GPU to crush large convolutions."""

    def test_cudnn_beats_best_cpu_by_10x_on_vgg_conv(self, tx2):
        g, layer = one_layer(
            "conv", out_channels=512, kernel=3, padding=1,
            input_shape=TensorShape(512, 28, 28),
        )
        cud = cudnn.CudnnWinogradConv().estimate_ms(layer, g, tx2)
        acl = armcl.ArmclWinograd4x4Conv().estimate_ms(layer, g, tx2)
        assert acl / cud >= 10.0


class TestCpuLibraryCrossovers:
    """Claim: the CPU-mode search has real choices to make (QS > BSL)."""

    def test_nnpack_wins_shallow_armcl_wins_deep(self, tx2):
        shallow_g, shallow = one_layer(
            "conv", out_channels=64, kernel=3, padding=1,
            input_shape=TensorShape(3, 224, 224),
        )
        deep_g, deep = one_layer(
            "conv", out_channels=512, kernel=3, padding=1,
            input_shape=TensorShape(512, 14, 14),
        )
        nnp_shallow = nnpack.NnpackWinogradConv().estimate_ms(shallow, shallow_g, tx2)
        acl_shallow = armcl.ArmclWinogradConv().estimate_ms(shallow, shallow_g, tx2)
        nnp_deep = nnpack.NnpackWinogradConv().estimate_ms(deep, deep_g, tx2)
        acl_deep = armcl.ArmclWinogradConv().estimate_ms(deep, deep_g, tx2)
        assert nnp_shallow < acl_shallow
        assert acl_deep < nnp_deep

    def test_fft_owns_5x5_on_cpu(self, tx2):
        g, layer = one_layer(
            "conv", out_channels=256, kernel=5, padding=2,
            input_shape=TensorShape(96, 27, 27),
        )
        fft = nnpack.NnpackFFTConv().estimate_ms(layer, g, tx2)
        gemm = armcl.ArmclGemmConv().estimate_ms(layer, g, tx2)
        assert fft < gemm

    def test_sparse_wins_fc_on_cpu(self, tx2):
        from repro.backends import sparse

        g, layer = one_layer(
            "fc", out_channels=4096, input_shape=TensorShape(512, 7, 7)
        )
        sp = sparse.SparseFullyConnected().estimate_ms(layer, g, tx2)
        acl = armcl.ArmclFullyConnected().estimate_ms(layer, g, tx2)
        assert sp < acl


class TestPaperNumbers:
    """Claims quoted verbatim in the paper, at the whole-network level.

    These re-derive the two headline numbers from profiled LUTs (slower
    than the unit checks above, but they pin the end-to-end outcome).
    """

    def test_max_candidates_is_13(self, tx2):
        """'the maximum number of different primitives for a layer,
        taking all the variants, is 13' (§VI-A)."""
        from repro.backends import gpgpu_space

        space = gpgpu_space(tx2)
        assert space.max_candidates(build_network("vgg19")) == 13

    def test_gpgpu_search_beats_vendor_library_on_mobilenet(self, tx2):
        from repro.analysis._cache import cached_lut
        from repro.baselines import pbqp_solve
        from repro.baselines.best_single_library import single_library_schedule

        lut = cached_lut("mobilenet_v1", Mode.GPGPU, tx2, seed=0)
        cudnn_only = single_library_schedule(lut, "cudnn").total_ms
        optimum = pbqp_solve(lut).best_ms
        assert cudnn_only / optimum >= 1.4  # the paper's 'over 1.4x'
