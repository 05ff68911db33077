"""Tests for the library win-matrix analysis."""

from __future__ import annotations

import pytest

from repro import Mode, jetson_tx2
from repro.analysis.win_matrix import render_win_matrix, win_matrix
from repro.baselines import pbqp_solve
from repro.zoo import build_network


@pytest.fixture(scope="module")
def setup(request):
    from repro.analysis._cache import cached_lut

    platform = jetson_tx2()
    graph = build_network("lenet5")
    lut = cached_lut("lenet5", Mode.GPGPU, platform, seed=0)
    assignments = pbqp_solve(lut).best_assignments
    return graph, lut, assignments


class TestWinMatrix:
    def test_counts_sum_to_layer_count(self, setup):
        graph, lut, assignments = setup
        matrix = win_matrix(lut, assignments, graph)
        total = sum(
            count for row in matrix.values() for count in row.values()
        )
        assert total == len(graph.layers())

    def test_kinds_match_network(self, setup):
        graph, lut, assignments = setup
        matrix = win_matrix(lut, assignments, graph)
        expected = {str(l.kind) for l in graph.layers()}
        assert set(matrix) == expected

    def test_conv_count(self, setup):
        graph, lut, assignments = setup
        matrix = win_matrix(lut, assignments, graph)
        assert sum(matrix["conv"].values()) == 2  # LeNet has two convs

    def test_render_contains_all_kinds(self, setup):
        graph, lut, assignments = setup
        matrix = win_matrix(lut, assignments, graph)
        text = render_win_matrix(matrix, title="T")
        for kind in matrix:
            assert kind in text
        assert "total" in text

    def test_render_uses_dots_for_zero(self):
        matrix = {"conv": {"armcl": 2}, "relu": {"vanilla": 1}}
        text = render_win_matrix(matrix)
        assert "." in text
