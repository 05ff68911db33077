"""Baselines the paper compares against (or that verify the search).

* :func:`random_search` — the paper's RS comparison (§VI-B, Fig. 5).
* :func:`best_single_library` / :func:`single_library_results` — Table
  II's per-library rows and the BSL column.
* :func:`greedy_per_layer` — the Fig. 1 trap: fastest primitive per
  layer, penalties ignored during selection.
* :class:`PBQPSolver` — partitioned boolean quadratic programming, the
  approach of Anderson & Gregg [14] the paper positions itself against,
  solved exactly by variable elimination: the one source of the exact
  optimum.  PBQP's RN heuristic runs only as the fallback above a
  table-size cap.
* :func:`simulated_annealing` — a classic non-learning local-search DSE
  baseline at an evaluation-matched budget.
* :func:`cross_entropy_method` / :func:`genetic_search` —
  population-based baselines that price whole generations per
  :meth:`~repro.engine.pricing.CostEngine.price_batch` call.
"""

from repro.baselines.annealing import simulated_annealing
from repro.baselines.cem import cross_entropy_method
from repro.baselines.genetic import genetic_search
from repro.baselines.random_search import random_search
from repro.baselines.best_single_library import (
    SingleLibraryResult,
    best_single_library,
    single_library_results,
)
from repro.baselines.greedy import greedy_per_layer
from repro.baselines.pbqp import PBQPSolver, pbqp_solve

__all__ = [
    "random_search",
    "simulated_annealing",
    "cross_entropy_method",
    "genetic_search",
    "SingleLibraryResult",
    "best_single_library",
    "single_library_results",
    "greedy_per_layer",
    "PBQPSolver",
    "pbqp_solve",
]
