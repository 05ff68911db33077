"""Tests for the baseline searchers and exact solvers."""

from __future__ import annotations

import pytest

from repro.analysis.compare import compare_methods
from repro.baselines import (
    PBQPSolver,
    best_single_library,
    greedy_per_layer,
    pbqp_solve,
    random_search,
    single_library_results,
)
from repro.baselines import pbqp
from repro.engine.pricing import CostEngine
from repro.errors import ConfigError

from tests.helpers import (
    enumerate_optimum,
    synthetic_chain_lut,
    synthetic_lut,
    trap_lut,
)


class TestRandomSearch:
    def test_deterministic_per_seed(self):
        lut = synthetic_chain_lut(6, 4, seed=1)
        a = random_search(lut, episodes=100, seed=5)
        b = random_search(lut, episodes=100, seed=5)
        assert a.best_ms == b.best_ms and a.curve_ms == b.curve_ms

    def test_more_episodes_never_worse(self):
        lut = synthetic_chain_lut(6, 4, seed=1)
        short = random_search(lut, episodes=50, seed=5)
        long = random_search(lut, episodes=500, seed=5)
        assert long.best_ms <= short.best_ms

    def test_best_matches_assignments(self):
        lut = synthetic_chain_lut(6, 4, seed=1)
        result = random_search(lut, episodes=100, seed=5)
        assert lut.schedule_time(result.best_assignments) == pytest.approx(
            result.best_ms
        )

    def test_bad_episodes(self):
        with pytest.raises(ConfigError):
            random_search(synthetic_chain_lut(3, 2), episodes=0)

    def test_curve_recorded(self):
        lut = synthetic_chain_lut(4, 3, seed=2)
        result = random_search(lut, episodes=25, seed=0)
        assert len(result.curve_ms) == 25


class TestEnumerationOracle:
    def test_optimal_on_trap(self):
        result = enumerate_optimum(trap_lut())
        assert result.best_ms == pytest.approx(10.0)

    def test_episodes_is_space_size(self):
        lut = synthetic_chain_lut(3, 4, seed=3)
        assert enumerate_optimum(lut).episodes == 4**3

    def test_never_beaten_by_random(self):
        lut = synthetic_chain_lut(5, 3, seed=4)
        exact = enumerate_optimum(lut)
        rs = random_search(lut, episodes=500, seed=1)
        assert exact.best_ms <= rs.best_ms + 1e-12


#: Every pair of four layers joined: each node has degree 3 from the
#: start, where PBQP's RN heuristic missed the optimum by 30%.
ALL_PAIRS_4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]


class TestPBQP:
    @pytest.mark.parametrize("num_layers,seed0", [(6, 0), (8, 10)])
    def test_exact_on_chains(self, num_layers, seed0):
        for seed in range(seed0, seed0 + 5):
            lut = synthetic_chain_lut(num_layers, 4, seed=seed)
            assert pbqp_solve(lut).best_ms == pytest.approx(
                enumerate_optimum(lut).best_ms, rel=1e-12
            )

    def test_exact_where_rn_was_not(self):
        """A dense graph on which the RN heuristic came out 30% above
        the optimum: elimination over the neighbours is exact."""
        lut = synthetic_lut(
            4, 4, ALL_PAIRS_4, seed=16, transfer_scale=2.0, conversion_scale=3.0
        )
        solver = PBQPSolver(lut)
        result = solver.solve()
        exact = enumerate_optimum(lut)
        assert result.best_ms == pytest.approx(exact.best_ms, rel=1e-12)
        assert result.best_assignments == exact.best_assignments
        assert solver.proven

    def test_fallback_above_cap_is_unproven(self, monkeypatch, toy_lut_gpgpu):
        """Above the table cap, RN fixes the node instead: the schedule
        is complete and engine-priced, but no longer proven."""
        monkeypatch.setattr(pbqp, "MAX_TABLE_ENTRIES", 1)
        lut = toy_lut_gpgpu
        solver = PBQPSolver(lut)
        result = solver.solve()
        assert not solver.proven
        assert set(result.best_assignments) == set(lut.layers)
        engine = CostEngine.from_lut(lut)
        choices = engine.choices_of(result.best_assignments)
        assert result.best_ms == engine.price(choices)  # bitwise
        assert result.best_ms >= enumerate_optimum(lut).best_ms
        cmp = compare_methods(lut, episodes=20, seed=0)
        assert cmp.pbqp_ms == result.best_ms
        assert cmp.optimal_ms is None

    def test_solves_trap(self):
        assert pbqp_solve(trap_lut()).best_ms == pytest.approx(10.0)

    def test_consistent_on_real_lenet(self, lenet_lut_gpgpu):
        result = pbqp_solve(lenet_lut_gpgpu)
        assert lenet_lut_gpgpu.schedule_time(result.best_assignments) == (
            pytest.approx(result.best_ms)
        )

    def test_optimal_on_branchy_graph(self, squeezenet_lut_gpgpu):
        lut = squeezenet_lut_gpgpu
        solver = PBQPSolver(lut)
        pb = solver.solve()
        assert solver.proven
        rs = random_search(lut, episodes=2000, seed=0)
        assert pb.best_ms < rs.best_ms
        # And the assignment must be internally consistent.
        assert lut.schedule_time(pb.best_assignments) == pytest.approx(pb.best_ms)

    def test_branchy_assignment_complete(self, squeezenet_lut_gpgpu):
        pb = pbqp_solve(squeezenet_lut_gpgpu)
        assert set(pb.best_assignments) == set(squeezenet_lut_gpgpu.layers)


class TestExactPricingAgreement:
    """The solver must report *exactly* the CostEngine price of the
    assignment it returns — any drift means it priced its result
    through a different (buggy) code path."""

    def test_oracle_exactly_equals_engine_price(self):
        for seed in range(5):
            lut = synthetic_chain_lut(5, 4, seed=seed)
            engine = CostEngine.from_lut(lut)
            result = enumerate_optimum(lut)
            choices = engine.choices_of(result.best_assignments)
            assert result.best_ms == engine.price(choices)  # bitwise

    def test_pbqp_exactly_equals_engine_price(self):
        for seed in range(5):
            lut = synthetic_chain_lut(7, 4, seed=seed)
            engine = CostEngine.from_lut(lut)
            result = pbqp_solve(lut)
            choices = engine.choices_of(result.best_assignments)
            assert result.best_ms == engine.price(choices)  # bitwise

    def test_exact_solvers_on_real_lut(self, lenet_lut_gpgpu):
        engine = CostEngine.from_lut(lenet_lut_gpgpu)
        result = pbqp_solve(lenet_lut_gpgpu)
        choices = engine.choices_of(result.best_assignments)
        assert result.best_ms == engine.price(choices)  # bitwise

    def test_oracle_equals_pbqp_on_trap(self):
        lut = trap_lut()
        engine = CostEngine.from_lut(lut)
        bf = enumerate_optimum(lut)
        pb = pbqp_solve(lut)
        assert bf.best_ms == pb.best_ms  # both priced by the engine
        assert bf.best_ms == engine.price(
            engine.choices_of(bf.best_assignments)
        )


class TestGreedy:
    def test_picks_per_layer_fastest(self):
        lut = synthetic_chain_lut(5, 4, seed=6)
        result = greedy_per_layer(lut)
        for layer in lut.layers:
            uid = result.best_assignments[layer]
            assert uid == lut.best_uid(layer)

    def test_falls_into_fig1_trap(self):
        """Greedy picks the fastest middle layer and pays the penalties."""
        result = greedy_per_layer(trap_lut())
        assert result.best_assignments["l1"] == "prim1"
        assert result.best_ms == pytest.approx(12.0)
        assert result.best_ms > enumerate_optimum(trap_lut()).best_ms

    def test_total_includes_penalties(self):
        lut = synthetic_chain_lut(5, 4, seed=6)
        result = greedy_per_layer(lut)
        raw = sum(
            lut.layer_time(l, result.best_assignments[l]) for l in lut.layers
        )
        assert result.best_ms >= raw


class TestSingleLibrary:
    def test_results_sorted_fastest_first(self, lenet_lut_cpu):
        results = single_library_results(lenet_lut_cpu)
        totals = [r.total_ms for r in results]
        assert totals == sorted(totals)

    def test_every_library_covered(self, lenet_lut_cpu):
        libs = {r.library for r in single_library_results(lenet_lut_cpu)}
        assert libs == {m.library for m in lenet_lut_cpu.meta.values()}

    def test_bsl_is_fastest(self, lenet_lut_cpu):
        results = single_library_results(lenet_lut_cpu)
        assert best_single_library(lenet_lut_cpu).total_ms == results[0].total_ms

    def test_vanilla_schedule_uses_only_vanilla(self, lenet_lut_cpu):
        from repro.baselines.best_single_library import single_library_schedule

        result = single_library_schedule(lenet_lut_cpu, "vanilla")
        metas = {lenet_lut_cpu.meta[u].library for u in result.assignments.values()}
        assert metas == {"vanilla"}

    def test_partial_library_falls_back_to_vanilla(self, lenet_lut_gpgpu):
        from repro.baselines.best_single_library import single_library_schedule

        result = single_library_schedule(lenet_lut_gpgpu, "cudnn")
        libs = {
            lenet_lut_gpgpu.meta[u].library for u in result.assignments.values()
        }
        assert libs == {"cudnn", "vanilla"}
        # FC layers must be the Vanilla fallback.
        assert lenet_lut_gpgpu.meta[result.assignments["ip1"]].library == "vanilla"

    def test_exclude_vanilla(self, lenet_lut_cpu):
        bsl = best_single_library(lenet_lut_cpu, exclude_vanilla=True)
        assert bsl.library != "vanilla"

    def test_vanilla_is_never_bsl(self, lenet_lut_cpu):
        """Any accelerated library beats pure Vanilla."""
        assert best_single_library(lenet_lut_cpu).library != "vanilla"
