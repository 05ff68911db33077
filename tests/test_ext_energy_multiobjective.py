"""Tests for the energy model and multi-objective extension."""

from __future__ import annotations

import pytest

from repro.baselines import pbqp_solve
from repro.errors import ConfigError
from repro.ext.energy import EnergyModel, schedule_energy_mj
from repro.ext.multiobjective import (
    ParetoPoint,
    pareto_front,
    pareto_sweep,
    weighted_objective_lut,
)
from repro.hw.processor import ProcessorKind

from tests.helpers import synthetic_chain_lut


@pytest.fixture(scope="module")
def lut():
    return synthetic_chain_lut(8, 4, seed=42)


def _first_assignment(lut):
    return {layer: lut.candidates[layer][0] for layer in lut.layers}


class TestEnergyModel:
    def test_defaults_gpu_hungrier(self):
        model = EnergyModel()
        assert model.watts(ProcessorKind.GPU) > model.watts(ProcessorKind.CPU)

    def test_invalid_watts_rejected(self):
        with pytest.raises(ConfigError):
            EnergyModel(cpu_watts=0.0)

    def test_energy_positive(self, lut):
        assert schedule_energy_mj(lut, _first_assignment(lut)) > 0

    def test_one_ms_at_one_watt_is_one_mj(self):
        lut = synthetic_chain_lut(2, 2, seed=0)
        model = EnergyModel(cpu_watts=1.0, gpu_watts=1.0, transfer_watts=1.0)
        # prim0 is CPU/NCHW on both layers: no penalties.
        assignments = {layer: "prim0" for layer in lut.layers}
        energy = schedule_energy_mj(lut, assignments, model)
        latency = lut.schedule_time(assignments)
        assert energy == pytest.approx(latency)

    def test_gpu_schedule_costs_more_energy_per_ms(self, lut):
        cpu_uid = "prim0"  # CPU in synthetic meta
        gpu_uid = "prim1"  # GPU in synthetic meta
        cpu_sched = {layer: cpu_uid for layer in lut.layers}
        gpu_sched = {layer: gpu_uid for layer in lut.layers}
        model = EnergyModel()
        cpu_ratio = schedule_energy_mj(lut, cpu_sched, model) / lut.schedule_time(
            cpu_sched
        )
        gpu_ratio = schedule_energy_mj(lut, gpu_sched, model) / lut.schedule_time(
            gpu_sched
        )
        assert gpu_ratio > cpu_ratio


class TestWeightedObjective:
    def test_lam_zero_changes_nothing(self, lut):
        weighted = weighted_objective_lut(lut, 0.0)
        assignments = _first_assignment(lut)
        assert weighted.schedule_time(assignments) == pytest.approx(
            lut.schedule_time(assignments)
        )

    def test_objective_is_latency_plus_lam_energy(self, lut):
        lam = 0.3
        model = EnergyModel()
        weighted = weighted_objective_lut(lut, lam, model)
        assignments = _first_assignment(lut)
        expected = lut.schedule_time(assignments) + lam * schedule_energy_mj(
            lut, assignments, model
        )
        assert weighted.schedule_time(assignments) == pytest.approx(expected)

    def test_negative_lam_rejected(self, lut):
        with pytest.raises(ConfigError):
            weighted_objective_lut(lut, -0.1)

    def test_mode_tag_records_lam(self, lut):
        assert "lam=0.5" in weighted_objective_lut(lut, 0.5).mode


class TestParetoSweep:
    def test_sweep_produces_one_point_per_lam(self, lut):
        points = pareto_sweep(lut, lams=[0.0, 0.5], episodes=200, seed=0)
        assert [p.lam for p in points] == [0.0, 0.5]

    def test_lam_zero_matches_latency_optimum(self, lut):
        points = pareto_sweep(lut, lams=[0.0], episodes=400, seed=0)
        assert points[0].latency_ms == pytest.approx(
            pbqp_solve(lut).best_ms, rel=0.02
        )

    def test_energy_weight_reduces_energy(self, lut):
        points = pareto_sweep(
            lut, lams=[0.0, 2.0], episodes=400, seed=0
        )
        assert points[1].energy_mj <= points[0].energy_mj * 1.001

    def test_pareto_front_is_nondominated(self):
        points = [
            ParetoPoint(0.0, 10.0, 100.0, {}),
            ParetoPoint(0.1, 11.0, 80.0, {}),
            ParetoPoint(0.2, 12.0, 90.0, {}),  # dominated by the second
            ParetoPoint(0.3, 15.0, 60.0, {}),
        ]
        front = pareto_front(points)
        assert [(p.latency_ms, p.energy_mj) for p in front] == [
            (10.0, 100.0),
            (11.0, 80.0),
            (15.0, 60.0),
        ]

    def test_gpu_layers_counter(self, lut):
        points = pareto_sweep(lut, lams=[0.0], episodes=100, seed=0)
        count = points[0].gpu_layers(lut)
        assert 0 <= count <= len(lut.layers)
