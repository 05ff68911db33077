"""Side-by-side comparison of every search/selection method on one LUT."""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.annealing import simulated_annealing
from repro.baselines.best_single_library import best_single_library
from repro.baselines.cem import cross_entropy_method
from repro.baselines.genetic import genetic_search
from repro.baselines.greedy import greedy_per_layer
from repro.baselines.pbqp import PBQPSolver
from repro.baselines.random_search import random_search
from repro.core.config import SearchConfig
from repro.core.search import QSDNNSearch
from repro.engine.lut import LatencyTable
from repro.utils.tables import AsciiTable
from repro.utils.units import format_ms


@dataclass(frozen=True)
class MethodComparison:
    """Latency achieved by each method on the same LUT."""

    network: str
    mode: str
    vanilla_ms: float
    bsl_ms: float
    greedy_ms: float
    qsdnn_ms: float
    rs_ms: float
    annealing_ms: float
    pbqp_ms: float
    cem_ms: float
    ga_ms: float
    optimal_ms: float | None  # pbqp_ms when the solver proved it optimal
    # Function-approximation baselines (ext/): absent from payloads
    # stored before they existed, so they default to None and old rows
    # decode unchanged.
    linear_q_ms: float | None = None
    mlp_q_ms: float | None = None

    def render(self) -> str:
        """Ascii table of every method's latency, normalized to QS-DNN."""
        table = AsciiTable(
            ["method", "latency", "vs QS-DNN"],
            title=f"{self.network} ({self.mode})",
        )
        entries = [
            ("vanilla", self.vanilla_ms),
            ("best single library", self.bsl_ms),
            ("greedy per layer", self.greedy_ms),
            ("random search", self.rs_ms),
            ("simulated annealing", self.annealing_ms),
            ("cross-entropy method", self.cem_ms),
            ("genetic algorithm", self.ga_ms),
            ("PBQP (Anderson & Gregg)", self.pbqp_ms),
            ("QS-DNN", self.qsdnn_ms),
        ]
        if self.linear_q_ms is not None:
            entries.append(("linear Q (approx.)", self.linear_q_ms))
        if self.mlp_q_ms is not None:
            entries.append(("MLP Q (approx.)", self.mlp_q_ms))
        if self.optimal_ms is not None:
            entries.append(("exact optimum", self.optimal_ms))
        for name, ms in entries:
            table.add_row([name, format_ms(ms), f"{ms / self.qsdnn_ms:.2f}x"])
        return table.render()


def compare_methods_many(
    networks: list[str],
    mode,
    platform,
    episodes: int | None = None,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: str | None = None,
    store_path: str | None = None,
) -> list[MethodComparison]:
    """Method comparisons for many networks, sharded across processes.

    Each network is one :class:`~repro.runtime.campaign.CampaignJob`
    (kind ``"compare"``); ``jobs`` controls worker processes and
    ``cache_dir`` the on-disk LUT cache.  ``store_path`` names a
    :class:`~repro.runtime.store.ResultStore` database: comparisons
    already stored there are returned without recomputation (floats
    round-trip bitwise) and fresh ones are persisted — the same store
    a running ``repro serve`` fills, so analysis can reuse the
    service's solved corpus.
    """
    from repro.runtime.campaign import (
        Campaign,
        grid,
        require_canonical_platform,
    )

    job_list = grid(
        networks,
        platforms=[require_canonical_platform(platform)],
        modes=[str(mode)],
        seeds=[seed],
        episodes=episodes,
        kind="compare",
    )
    if store_path is None:
        campaign = Campaign(job_list, workers=jobs, cache_dir=cache_dir)
        return [result.payload for result in campaign.run()]

    from repro.runtime.store import ResultStore

    with ResultStore(store_path) as store:
        payloads: list[MethodComparison | None] = []
        missing = []
        for job in job_list:
            stored = store.get(job)
            payloads.append(stored.payload if stored is not None else None)
            if stored is None:
                missing.append(job)
        if missing:
            campaign = Campaign(missing, workers=jobs, cache_dir=cache_dir)
            fresh = iter(campaign.run())
            for index, payload in enumerate(payloads):
                if payload is None:
                    result = next(fresh)
                    store.put(
                        result.job, result.payload, result.wall_clock_s
                    )
                    payloads[index] = result.payload
    return payloads


def compare_methods(
    lut: LatencyTable,
    episodes: int = 1000,
    seed: int = 0,
    kernel: str = "auto",
    approx: bool = False,
) -> MethodComparison:
    """Run every method at the same budget on one LUT.

    ``approx=True`` also prices the function-approximation baselines
    (``ext/linear_q``, ``ext/mlp_q``) — off by default because they
    roll out in Python and dominate wall clock on large networks.
    """
    vanilla = {
        layer: lut.best_uid(
            layer,
            within={
                u for u in lut.candidates[layer]
                if lut.meta[u].library == "vanilla"
            },
        )
        for layer in lut.layers
    }
    rl = QSDNNSearch(
        lut, SearchConfig(episodes=episodes, seed=seed, kernel=kernel)
    ).run()
    solver = PBQPSolver(lut)
    pbqp_ms = solver.solve().best_ms
    linear_q_ms = mlp_q_ms = None
    if approx:
        from repro.ext.linear_q import LinearQConfig, LinearQSearch
        from repro.ext.mlp_q import MLPQConfig, MLPQSearch

        linear_q_ms = LinearQSearch(
            lut, LinearQConfig(episodes=episodes, seed=seed)
        ).run().best_ms
        mlp_q_ms = MLPQSearch(
            lut, MLPQConfig(episodes=episodes, seed=seed)
        ).run().best_ms
    return MethodComparison(
        network=lut.graph_name,
        mode=lut.mode,
        vanilla_ms=lut.schedule_time(vanilla),
        bsl_ms=best_single_library(lut).total_ms,
        greedy_ms=greedy_per_layer(lut).best_ms,
        qsdnn_ms=rl.best_ms,
        rs_ms=random_search(lut, episodes=episodes, seed=seed).best_ms,
        annealing_ms=simulated_annealing(lut, episodes=episodes, seed=seed).best_ms,
        pbqp_ms=pbqp_ms,
        cem_ms=cross_entropy_method(lut, episodes=episodes, seed=seed).best_ms,
        ga_ms=genetic_search(lut, episodes=episodes, seed=seed).best_ms,
        optimal_ms=pbqp_ms if solver.proven else None,
        linear_q_ms=linear_q_ms,
        mlp_q_ms=mlp_q_ms,
    )
