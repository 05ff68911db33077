"""Partitioned Boolean Quadratic Programming solver.

Anderson & Gregg [14] formulate DNN primitive selection as a PBQP
instance: each layer is a node with a cost vector (its primitive times),
each graph edge carries a cost matrix (the compatibility penalties), and
the objective is the minimum total.  The paper positions QS-DNN against
this approach, so we implement it as a baseline.

The solver is one exact rule, min-sum variable elimination over cost
tables.  It repeatedly takes the live node with the fewest live
neighbours (ties by index), sums every table that touches it into one
table over it and its neighbours, keeps the argmin for each neighbour
assignment and adds the min as a new table over the neighbours.  PBQP's
reductions R0, RI and RII are this rule with 0, 1 and 2 neighbours.
Replaying the argmins in reverse elimination order recovers an optimal
choice for every node.

PBQP's heuristic RN (fix the node's locally best option) survives only
as the fallback for a node whose table would exceed
:data:`MAX_TABLE_ENTRIES`; running it clears :attr:`PBQPSolver.proven`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.result import SearchResult
from repro.engine.lut import LatencyTable

#: Largest table one elimination may build (8 MiB of float64).  Bounds
#: memory on a LUT read from outside the program; the largest table on
#: any zoo network has a few hundred entries.
MAX_TABLE_ENTRIES = 2**20

#: The sorted node indices a cost table ranges over, one axis each.
Scope = tuple[int, ...]


class PBQPSolver:
    """Solve one PBQP instance built from a latency table.

    The instance *is* the :class:`~repro.engine.pricing.CostEngine`'s
    representation — per-layer cost vectors plus per-edge cost matrices
    — consumed directly from the compiled engine.  After :meth:`solve`,
    :attr:`proven` is True when the answer is the exact optimum (no
    fallback step ran).
    """

    def __init__(self, lut: LatencyTable) -> None:
        self.lut = lut
        self.engine = lut.engine()
        self.proven: bool | None = None

    def solve(self) -> SearchResult:
        """Eliminate every node, then replay the argmins."""
        started = time.perf_counter()
        engine = self.engine
        sizes = [int(n) for n in engine.num_actions]
        num_nodes = len(sizes)
        tables: dict[Scope, np.ndarray] = {
            (i,): t for i, t in enumerate(engine.times)
        }
        for (producer, consumer), matrix in zip(engine.edges, engine.edge_matrices):
            u = engine.layer_index[producer]
            v = engine.layer_index[consumer]
            if u > v:
                u, v, matrix = v, u, matrix.T
            _add_table(tables, (u, v), matrix)
        # Index tables by node, so a step touches only its node's tables.
        touching: list[set[Scope]] = [set() for _ in sizes]
        neighbours: list[set[int]] = [set() for _ in sizes]
        for scope in tables:
            for node in scope:
                touching[node].add(scope)
                neighbours[node].update(scope)
        for node, others in enumerate(neighbours):
            others.discard(node)

        self.proven = True
        alive = set(range(num_nodes))
        # Fewest live neighbours first, ties by index, as one integer.
        rank = [len(others) * num_nodes + n for n, others in enumerate(neighbours)]
        steps: list[tuple[int, Scope, np.ndarray]] = []
        while alive:
            node = min(alive, key=rank.__getitem__)
            alive.remove(node)
            # The node's own vector first, then its edges in neighbour
            # order: the summation order of the classic reductions.
            scopes = sorted(touching[node], key=lambda s: (len(s), s))
            factors = [(scope, tables.pop(scope)) for scope in scopes]
            for scope in scopes:
                for other in scope:
                    if other != node:
                        touching[other].discard(scope)
            nbrs = tuple(sorted(neighbours[node]))
            entries = sizes[node]
            for other in nbrs:
                entries *= sizes[other]
                neighbours[other].discard(node)
            if entries <= MAX_TABLE_ENTRIES:
                decision, message = _eliminate(node, nbrs, factors, sizes)
                messages = [(nbrs, message)] if nbrs else []
                for other in nbrs:  # the neighbours now share a table
                    neighbours[other].update(nbrs)
                    neighbours[other].discard(other)
            else:
                self.proven = False
                decision, messages = _fix_locally_best(node, factors, tables)
                nbrs = ()
            for scope, table in messages:
                if _add_table(tables, scope, table):
                    for other in scope:
                        touching[other].add(scope)
            for other in neighbours[node]:
                rank[other] = len(neighbours[other]) * num_nodes + other
            steps.append((node, nbrs, decision))

        choices = np.empty(num_nodes, dtype=np.int64)
        for node, nbrs, decision in reversed(steps):
            choices[node] = decision[tuple(choices[m] for m in nbrs)]
        return SearchResult(
            graph_name=self.lut.graph_name,
            method="pbqp",
            best_assignments=engine.assignments(choices),
            best_ms=engine.price(choices),
            episodes=1,
            curve_ms=[],
            wall_clock_s=time.perf_counter() - started,
        )


def _add_table(
    tables: dict[Scope, np.ndarray], scope: Scope, table: np.ndarray
) -> bool:
    """Add ``table`` into the one over ``scope``; True if it is new."""
    if scope in tables:
        tables[scope] = tables[scope] + table
        return False
    tables[scope] = table
    return True


def _eliminate(
    node: int,
    nbrs: Scope,
    factors: list[tuple[Scope, np.ndarray]],
    sizes: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Sum the node's tables into one over the node and ``nbrs`` and
    minimise the node out: the argmin and the min per assignment of
    ``nbrs``.  The joint axes are sorted, like every table's, so a
    table aligns by reshaping alone."""
    joint = tuple(sorted(nbrs + (node,)))
    total = None
    for scope, table in factors:
        aligned = table.reshape([sizes[m] if m in scope else 1 for m in joint])
        total = aligned if total is None else total + aligned
    axis = joint.index(node)
    return total.argmin(axis=axis), total.min(axis=axis)


def _fix_locally_best(
    node: int,
    factors: list[tuple[Scope, np.ndarray]],
    tables: dict[Scope, np.ndarray],
) -> tuple[np.ndarray, list[tuple[Scope, np.ndarray]]]:
    """PBQP's RN: score each option by its own cost plus, per table,
    the best reachable cost with the other nodes' vectors.  Returns the
    cheapest option and each table's slice at it, over the rest."""
    (_, score), *others = factors
    for scope, table in others:
        reach = table
        for i, other in enumerate(scope):
            if other != node:
                shape = [1] * len(scope)
                shape[i] = -1
                reach = reach + tables[(other,)].reshape(shape)
        reach = np.moveaxis(reach, scope.index(node), 0)
        score = score + reach.reshape(len(score), -1).min(axis=1)
    choice = np.argmin(score)
    slices = [
        (
            tuple(m for m in scope if m != node),
            np.take(table, choice, axis=scope.index(node)),
        )
        for scope, table in others
    ]
    return choice, slices


def pbqp_solve(lut: LatencyTable) -> SearchResult:
    """Convenience wrapper: solve a LUT's selection problem with PBQP."""
    return PBQPSolver(lut).solve()
