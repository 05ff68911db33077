"""Tests for the Table II / Fig. 4 / Fig. 5 analysis harnesses."""

from __future__ import annotations

import pytest

from repro import Mode, jetson_tx2
from repro.analysis import (
    compare_methods,
    fig4_learning_curve,
    fig5_rl_vs_rs,
    render_table2,
    run_table2_row,
)
from repro.analysis._cache import cached_lut, cached_table2_row, clear


@pytest.fixture(scope="module")
def tx2():
    return jetson_tx2()


@pytest.fixture(scope="module")
def lenet_row(tx2):
    return run_table2_row("lenet5", Mode.GPGPU, tx2, episodes=300, seed=0)


class TestTable2Row:
    def test_vanilla_slowest(self, lenet_row):
        assert all(
            lenet_row.vanilla_ms >= ms * 0.99
            for ms in lenet_row.library_ms.values()
        )

    def test_bsl_is_min_of_libraries(self, lenet_row):
        non_vanilla = {
            k: v for k, v in lenet_row.library_ms.items() if k != "vanilla"
        }
        assert lenet_row.bsl_ms == min(non_vanilla.values())

    def test_qsdnn_beats_bsl(self, lenet_row):
        """Paper: 'QS-DNN outperforms all single-library implementations'."""
        assert lenet_row.qsdnn_vs_bsl > 1.0

    def test_qsdnn_beats_rs(self, lenet_row):
        assert lenet_row.rl_vs_rs >= 1.0

    def test_speedup_definitions(self, lenet_row):
        assert lenet_row.qsdnn_speedup == pytest.approx(
            lenet_row.vanilla_ms / lenet_row.qsdnn_ms
        )
        assert lenet_row.library_speedup("vanilla") == pytest.approx(1.0)

    def test_space_size_recorded(self, lenet_row):
        assert lenet_row.space_log10 > 3

    def test_multiple_libraries_used(self, lenet_row):
        assert len(lenet_row.qsdnn_libraries) >= 2


class TestRenderTable2:
    def test_renders_all_networks(self, lenet_row):
        out = render_table2([lenet_row], title="T")
        assert "lenet5" in out and "BSL" in out and "QS-DNN" in out

    def test_empty(self):
        assert render_table2([]) == "(no rows)"


class TestFig4:
    def test_curve_and_buckets(self, tx2):
        lut = cached_lut("lenet5", Mode.GPGPU, tx2)
        data = fig4_learning_curve(lut, episodes=200, seed=0)
        xs, ys = data.bucketed
        assert len(xs) == len(ys) == 20
        assert "Fig.4" in data.render(width=40, height=8)

    def test_exploitation_end_is_better_than_exploration(self, tx2):
        lut = cached_lut("lenet5", Mode.GPGPU, tx2)
        data = fig4_learning_curve(lut, episodes=400, seed=0)
        _, ys = data.bucketed
        assert ys[-1] < ys[0]


class TestFig5:
    def test_protocol_shape(self, tx2):
        lut = cached_lut("lenet5", Mode.GPGPU, tx2)
        data = fig5_rl_vs_rs(lut, budgets=[25, 100], runs=3, seed=0)
        assert data.budgets == [25, 100]
        assert len(data.rl_mean) == len(data.rs_mean) == 2

    def test_rl_at_least_matches_rs_at_large_budget(self, tx2):
        lut = cached_lut("lenet5", Mode.GPGPU, tx2)
        data = fig5_rl_vs_rs(lut, budgets=[300], runs=3, seed=0)
        assert data.ratio_at(300) >= 1.0

    def test_render(self, tx2):
        lut = cached_lut("lenet5", Mode.GPGPU, tx2)
        data = fig5_rl_vs_rs(lut, budgets=[25, 50], runs=2, seed=0)
        out = data.render(width=40, height=8)
        assert "RL" in out and "RS" in out


class TestCompareMethods:
    def test_all_methods_present(self, tx2):
        lut = cached_lut("lenet5", Mode.GPGPU, tx2)
        cmp = compare_methods(lut, episodes=300, seed=0)
        assert cmp.vanilla_ms > cmp.bsl_ms > 0
        assert cmp.optimal_ms == cmp.pbqp_ms  # proven optimal
        assert cmp.qsdnn_ms <= cmp.rs_ms
        assert "QS-DNN" in cmp.render()

    def test_optimal_set_for_branchy(self, tx2):
        lut = cached_lut("squeezenet_v1.1", Mode.GPGPU, tx2)
        cmp = compare_methods(lut, episodes=100, seed=0)
        assert cmp.optimal_ms == cmp.pbqp_ms
        assert "exact optimum" in cmp.render()


class TestCache:
    def test_lut_cached_identity(self, tx2):
        a = cached_lut("lenet5", Mode.GPGPU, tx2)
        b = cached_lut("lenet5", Mode.GPGPU, tx2)
        assert a is b

    def test_row_cached_identity(self, tx2):
        a = cached_table2_row("lenet5", Mode.GPGPU, tx2, episodes=100, seed=0)
        b = cached_table2_row("lenet5", Mode.GPGPU, tx2, episodes=100, seed=0)
        assert a is b

    def test_clear(self, tx2):
        a = cached_lut("lenet5", Mode.CPU, tx2)
        clear()
        b = cached_lut("lenet5", Mode.CPU, tx2)
        assert a is not b
