"""Multi-seed QS-DNN: K independent searches in lockstep.

Robustness sweeps and portfolio searches run the same
(network, platform, mode) scenario under many seeds.
:class:`MultiSeedSearch` advances the K searches episode by episode
through the one episode loop of :func:`repro.core.search.run_episodes`,
which draws each seed's randomness from the *same* named streams as a
single-seed :class:`~repro.core.search.QSDNNSearch` — so every member's
``best_ms``, curve and final Q state are bit-identical to an
independent run with its seed (exactness contract 4, property-tested).

What differs between sweeps is the runner kind that does the episode
arithmetic, chosen by one rule:

* ``mega`` (:class:`~repro.core.kernels.mega.MegaState`) when
  :func:`~repro.core.kernels.mega_selected` says so — an explicit
  ``kernel="mega"``, or ``"auto"`` with numba and K >= 64;
* ``vectorized`` (:class:`VectorizedKind`) for replay off, plain
  eq. (2) and the reference backend: it prices all K rollouts in one
  :meth:`~repro.engine.pricing.CostEngine.layer_costs_batch` call and
  batches the learning pass across seeds and layers in numpy, which
  makes K=8 seeds cost well under 8 independent runs;
* ``scalar`` (:class:`~repro.core.search.ScalarKind`) otherwise: K
  per-seed kernel runners stepped exactly as K single-seed searches
  would step them.  Replay and the first-visit bootstrap are
  sequential per-seed update chains that batching across seeds does
  not speed up, and under numba one compiled call per seed and
  episode beats numpy seed-batching.

Within one seed Algorithm 1 is sequential, but the K seeds of a sweep
are independent runs, so a sweep may also split across processes
(:func:`shard_count`).  It splits its seeds into P contiguous shards
whose sizes differ by at most one, forks P - 1 children, runs the last
shard itself and puts the members back in seed order.  Each shard
routes its own kind by the rule above and runs the same episode loop,
so every member is still bit-identical to its solo run; only the wall
clock changes.  A sweep stays in-process when it is anytime (a
checkpoint captures every seed at one episode boundary), when it
routes to mega (one dispatch over all seeds already), and wherever
:func:`~repro.utils.proc.can_fork` says no: in a multiprocessing child
(a campaign's children and the service's local workers already fill
the CPUs; a shard never shards again), while another Python thread
runs (it may hold a lock at fork time), or without ``fork``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import SearchConfig
from repro.core.kernels import mega_selected, resolve_backend
from repro.core.priors import prior_row_max, q_layout
from repro.core.result import SearchResult
from repro.core.search import ScalarKind, run_episodes
from repro.engine.lut import LatencyTable
from repro.errors import ConfigError
from repro.utils.proc import can_fork, fork_map
from repro.utils.units import format_ms


def seed_range(base_seed: int, count: int) -> list[int]:
    """The K consecutive seeds ``base_seed .. base_seed + count - 1``."""
    if count < 1:
        raise ConfigError(f"seed count must be >= 1, got {count}")
    return list(range(base_seed, base_seed + count))


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the host's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def shard_count(
    num_seeds: int,
    mega: bool,
    checkpoint_every: int | None = None,
    on_checkpoint=None,
    resume: dict | None = None,
) -> int:
    """How many processes a sweep of ``num_seeds`` runs on (1: in-process).

    The sweep stays in-process when it is anytime (any of the
    :meth:`MultiSeedSearch.run` arguments given), when it routes to
    the mega kind (``mega``), or where :func:`~repro.utils.proc.can_fork`
    says no.  Otherwise it runs on min(K, usable CPUs) processes.
    """
    if (
        checkpoint_every is not None
        or on_checkpoint is not None
        or resume is not None
        or mega
        or not can_fork()
    ):
        return 1
    return min(num_seeds, usable_cpus())


@dataclass
class MultiSeedResult:
    """Outcome of one lockstep multi-seed search.

    ``results[i]`` is seed ``seeds[i]``'s :class:`SearchResult`,
    bit-identical to an independent single-seed run; each carries an
    equal share of the total wall clock.  ``batched_pricings`` counts
    the lockstep episode steps, one per episode whatever K (the store
    codec keeps the name; only the vectorized kind prices a step's K
    rollouts in one engine call).
    """

    results: list[SearchResult]
    wall_clock_s: float
    batched_pricings: int = 0
    lockstep: bool = True

    @property
    def seeds(self) -> list[int]:
        """The seed of each member run, in result order."""
        return [r.config.seed if r.config else i for i, r in enumerate(self.results)]

    @property
    def best(self) -> SearchResult:
        """The member run with the lowest ``best_ms``."""
        return min(self.results, key=lambda r: r.best_ms)

    @property
    def best_ms_per_seed(self) -> list[float]:
        """``best_ms`` of each member run, in result order."""
        return [r.best_ms for r in self.results]

    def summary(self) -> str:
        """One-line description of the whole sweep."""
        best = self.best
        spread = max(self.best_ms_per_seed) - min(self.best_ms_per_seed)
        mode = "lockstep" if self.lockstep else "sequential"
        throughput = (
            f", {len(self.results) / self.wall_clock_s:.0f} seeds/s"
            if self.wall_clock_s > 0
            else ""
        )
        return (
            f"multi-seed qs-dnn on {best.graph_name}: {len(self.results)} seeds "
            f"({mode}), best {format_ms(best.best_ms)} "
            f"(seed {best.config.seed if best.config else '?'}, "
            f"spread {format_ms(spread)}) in {self.wall_clock_s:.2f}s"
            f"{throughput}"
        )


class MultiSeedSearch:
    """K independent QS-DNN searches over one LUT, run in lockstep.

    ``prior`` seeds every member's Q table with the same flat block
    (see :mod:`repro.core.priors`) when ``config.warm_start`` is not
    ``"off"`` — exactly what each member's independent single-seed run
    would load, preserving the lockstep == independent contract.
    """

    def __init__(
        self,
        lut: LatencyTable,
        config: SearchConfig | None = None,
        seeds: Sequence[int] = (0,),
        prior=None,
    ) -> None:
        self.lut = lut
        self.config = config or SearchConfig()
        self.seeds = [int(s) for s in seeds]
        if not self.seeds:
            raise ConfigError("multi-seed search needs at least one seed")
        self.prior = prior
        self.indexed = lut.indexed()
        self.engine = self.indexed.engine()

    def run(
        self,
        checkpoint_every: int | None = None,
        on_checkpoint=None,
        resume: dict | None = None,
    ) -> MultiSeedResult:
        """Run every seed to completion; results come back in seed order.

        ``checkpoint_every``/``on_checkpoint``/``resume`` behave as in
        :meth:`QSDNNSearch.run`, with the whole lockstep sweep captured
        in one checkpoint (one snapshot per seed).  Without them the
        seeds may run on several processes (:func:`shard_count`).
        """
        processes = shard_count(
            len(self.seeds),
            mega_selected(self.config.kernel, len(self.seeds)),
            checkpoint_every,
            on_checkpoint,
            resume,
        )
        if processes > 1:
            #: Test hook: None, as no in-process kind holds every seed.
            self._kind = None
            results, wall = self._run_sharded(processes)
            return MultiSeedResult(
                results=results,
                wall_clock_s=wall,
                batched_pricings=self.config.episodes,
            )
        #: Test hook: the runner kind, holding the final search state.
        self._kind = self._runner_kind()
        results, steps, wall = run_episodes(
            self,
            self._kind,
            self.seeds,
            "multi-seed",
            checkpoint_every,
            on_checkpoint,
            resume,
        )
        return MultiSeedResult(
            results=results, wall_clock_s=wall, batched_pricings=steps
        )

    def _run_sharded(self, processes: int) -> tuple[list[SearchResult], float]:
        """Run the seeds as ``processes`` contiguous shards: P - 1 forked
        children and the last shard here; returns the members in seed
        order and the whole sweep's wall clock."""
        started = time.perf_counter()
        prior = self.prior
        if self.config.warm_start != "off" and prior is not None:
            # Resolved once, before any fork: a store-backed prior
            # queries sqlite, whose connections must not cross a fork.
            prior = _ResolvedPrior(prior.prior_for(self.lut, self.config.discount))
        shards = [part.tolist() for part in np.array_split(self.seeds, processes)]
        members = fork_map(
            lambda seeds: self._run_shard(seeds, prior),
            shards,
            processes - 1,
            lambda seeds: f"sweep shard for seeds {seeds}",
            own=1,
        )
        results = [result for shard in members for result in shard]
        wall = time.perf_counter() - started
        for result in results:
            result.wall_clock_s = wall / len(results)
        return results, wall

    def _run_shard(self, seeds: list[int], prior) -> list[SearchResult]:
        """Run ``seeds`` in this process through the kind they route to."""
        shard = MultiSeedSearch(self.lut, self.config, seeds=seeds, prior=prior)
        results, _, _ = run_episodes(
            shard, shard._runner_kind(), shard.seeds, "multi-seed"
        )
        return results

    def _runner_kind(self):
        """The routing rule of the module docstring."""
        cfg = self.config
        num_seeds = len(self.seeds)
        if mega_selected(cfg.kernel, num_seeds):
            from repro.core.kernels import mega

            mega.ensure_warm()
            num_actions, row_sizes = q_layout(self.indexed)
            views = self.engine.kernel_views()
            return mega.MegaState(
                num_seeds=num_seeds,
                num_actions=num_actions,
                row_sizes=row_sizes,
                q_parent=np.asarray(self.indexed.q_parent, dtype=np.int64),
                pricing=views[:6],
                max_actions=views[6],
                learning_rate=cfg.learning_rate,
                discount=cfg.discount,
                first_visit_bootstrap=cfg.first_visit_bootstrap,
                replay_enabled=cfg.replay_enabled,
                replay_capacity=cfg.replay_capacity,
            )
        if (
            not cfg.replay_enabled
            and not cfg.first_visit_bootstrap
            and resolve_backend(cfg.kernel) == "reference"
        ):
            return VectorizedKind(self.engine, self.indexed, cfg, num_seeds)
        return ScalarKind(self.engine, self.indexed, cfg, num_seeds)


class _ResolvedPrior:
    """A prior already resolved to its flat block (None: cold)."""

    def __init__(self, values: np.ndarray | None) -> None:
        self._values = values

    def prior_for(self, lut, discount: float = 0.9) -> np.ndarray | None:
        """The block resolved before the fork, whatever the arguments."""
        return self._values


class VectorizedKind:
    """K replay-off, plain-eq. (2) seeds as one dense numpy batch.

    Within one episode the online eq. (2) updates are
    order-independent: the update of layer ``i`` bootstraps from
    layer ``i + 1``'s row max, which this episode only writes
    *after* reading (the reference loop runs in ascending layer
    order), and every (seed, layer) pair is updated exactly once.
    All ``K x L`` updates of an episode therefore batch into a
    handful of flat-array numpy operations while reproducing the
    sequential reference bit-for-bit.

    Q lives in a dense ``(K, L, R, A)`` block padded with -inf (so
    row-wise rescans ignore the padding); :meth:`export_seed` and
    :meth:`import_seed` translate a seed's slice to and from the flat
    :meth:`~repro.core.qtable.QTable.flat` layout.  Greedy decisions
    never scan Q rows: an argmax cache per (seed, layer, row) is
    maintained under the exact ``values.index(row_max)`` first-index
    semantics of :meth:`QTable.greedy_action`, mirrored into nested
    Python lists (lazily, on the first non-exploration episode) for
    fast scalar reads in the sequential decision walk.
    """

    backend = "vectorized"

    def __init__(self, engine, idx, config: SearchConfig, num_seeds: int) -> None:
        self._engine = engine
        self._layout = q_layout(idx)
        counts = np.asarray(idx.num_actions, dtype=np.int64)
        self._q_parent = [int(p) for p in idx.q_parent]
        parent_idx = np.asarray(idx.q_parent, dtype=np.int64)
        self._virtual_start = parent_idx < 0
        self._parent_gather = np.maximum(parent_idx, 0)
        row_counts = np.asarray(self._layout[1], dtype=np.int64)
        num_layers = len(counts)
        max_rows = int(row_counts.max())
        self._max_rows = max_rows
        self._max_actions = int(counts.max())
        self._keep = 1.0 - config.learning_rate
        self._lr = config.learning_rate
        self._gamma = config.discount
        self._row_valid = np.arange(max_rows)[None, :] < row_counts[:, None]
        self._valid = self._row_valid[:, :, None] & (
            np.arange(self._max_actions)[None, None, :] < counts[:, None, None]
        )
        self.q = np.full(
            (num_seeds, num_layers, max_rows, self._max_actions),
            -np.inf,
            dtype=np.float64,
        )
        self.q[:, self._valid] = 0.0
        self.row_max = np.zeros((num_seeds, num_layers, max_rows), dtype=np.float64)
        self.arg_max = np.zeros((num_seeds, num_layers, max_rows), dtype=np.int64)
        #: Python-list mirror of arg_max for the scalar decision walk.
        self._mirror: list[list[list[int]]] | None = None
        #: Per seed: the last full-exploitation walk is still valid (no
        #: greedy-cache entry changed since it was computed).
        self._walk_fresh = [False] * num_seeds
        seed_col = np.arange(num_seeds)[:, None]
        layer_row = np.arange(num_layers)[None, :]
        self._row_base = (seed_col * num_layers + layer_row) * max_rows
        self._batch = np.empty((num_seeds, num_layers), dtype=np.int64)
        self._rows = np.empty((num_seeds, num_layers), dtype=np.int64)

    def replay_orders(self, replay_rngs) -> None:
        """None: the routing rule sends only replay-off sweeps here."""
        return None

    def _decide(self, explore, explored) -> None:
        """The decision pass: fills the batch of choices and Q rows."""
        batch = self._batch
        rows_np = self._rows
        num_seeds, num_layers = batch.shape
        q_parent = self._q_parent
        if explored is not None and explore is None:
            batch[:] = explored
            rows_np[:] = np.where(
                self._virtual_start[None, :], 0, batch[:, self._parent_gather]
            )
            if self._mirror is not None:
                self._walk_fresh = [False] * num_seeds
            return
        if self._mirror is None:
            self._mirror = self.arg_max.tolist()
        walk_fresh = self._walk_fresh
        if explored is None:
            flags = [[False] * num_layers] * num_seeds
            picks = flags
        else:
            flags = explore.tolist()
            picks = explored.tolist()
        for s in range(num_seeds):
            if explored is None:
                if walk_fresh[s]:
                    # No greedy-cache entry changed since this seed's
                    # last full-exploitation walk, so the walk (still
                    # in batch[s] / rows_np[s]) would come out the same.
                    continue
                walk_fresh[s] = True
            else:
                walk_fresh[s] = False
            greedy = self._mirror[s]
            flag = flags[s]
            pick = picks[s]
            choices = [0] * num_layers
            rows = [0] * num_layers
            for i in range(num_layers):
                parent = q_parent[i]
                row = 0 if parent < 0 else choices[parent]
                rows[i] = row
                choices[i] = pick[i] if flag[i] else greedy[i][row]
            batch[s] = choices
            rows_np[s] = rows

    def rollout_price(self, explore, explored) -> np.ndarray:
        """The decision pass, then all K rollouts priced in one call."""
        self._decide(explore, explored)
        return self._engine.layer_costs_batch(self._batch, checked=False)

    def episode(self, explore, explored, orders) -> np.ndarray:
        """Rollout, pricing and the batched eq. (2) pass; returns costs."""
        costs = self.rollout_price(explore, explored)
        self.learn(-costs, orders)
        return costs

    def learn(self, rewards: np.ndarray, orders) -> None:
        """K x L online eq. (2) updates in one batch."""
        batch = self._batch
        max_rows = self._max_rows
        num_seeds, num_layers = batch.shape
        q_flat = self.q.reshape(-1)
        q_rows = self.q.reshape(-1, self._max_actions)
        rm_flat = self.row_max.reshape(-1)
        am_flat = self.arg_max.reshape(-1)
        row_idx = self._row_base + self._rows
        q_idx = row_idx * self._max_actions + batch
        old = q_flat.take(q_idx)
        boot = np.zeros((num_seeds, num_layers), dtype=np.float64)
        # The bootstrap of layer i reads (seed, i + 1, rows[i + 1]),
        # which is exactly the next column of row_idx; the terminal
        # layer bootstraps from 0.
        boot[:, :-1] = rm_flat.take(row_idx[:, 1:])
        new = old * self._keep + self._lr * (rewards + self._gamma * boot)
        q_flat[q_idx.reshape(-1)] = new.reshape(-1)
        cur = rm_flat.take(row_idx)
        am_pre = am_flat.take(row_idx)
        raised = new > cur
        tied_earlier = (new == cur) & (batch < am_pre)
        dropped = (old == cur) & (new < old)
        pokes: list[tuple] = []
        target = row_idx[raised]
        winners = batch[raised]
        rm_flat[target] = new[raised]
        am_flat[target] = winners
        pokes.append((target, winners))
        target = row_idx[tied_earlier]
        winners = batch[tied_earlier]
        am_flat[target] = winners
        pokes.append((target, winners))
        # The maximal entry decreased: rescan those rows (the batch
        # writes are already applied, and each row is touched at
        # most once per episode).
        target = row_idx[dropped]
        rescanned = q_rows[target]
        rm_flat[target] = rescanned.max(axis=1)
        winners = rescanned.argmax(axis=1)
        am_flat[target] = winners
        pokes.append((target, winners))
        if self._mirror is not None:
            walk_fresh = self._walk_fresh
            for target, winners in pokes:
                for flat, winner in zip(target.tolist(), winners.tolist()):
                    row, flat = flat % max_rows, flat // max_rows
                    layer, s = flat % num_layers, flat // num_layers
                    greedy = self._mirror[s]
                    if greedy[layer][row] != winner:
                        greedy[layer][row] = winner
                        walk_fresh[s] = False

    def snapshot(self, s: int) -> np.ndarray:
        """A copy of seed ``s``'s current choices."""
        return self._batch[s].copy()

    def export_seed(self, s: int):
        """Seed ``s``'s dense slice in the flat ``QTable`` layout."""
        empty = np.zeros(0, dtype=np.bool_)
        return self.q[s][self._valid], self.row_max[s][self._row_valid], empty, None

    def import_seed(self, s: int, q, row_max, visited, ring) -> None:
        """Write a flat Q block and row maxima into seed ``s``'s slice."""
        self.q[s][self._valid] = q
        self.row_max[s][self._row_valid] = row_max
        # The row max is exact, so the first-index argmax over the
        # -inf-padded rows is the cache the updates maintain.
        self.arg_max[s] = self.q[s].argmax(axis=-1)
        self._mirror = None

    def load_prior(self, values: np.ndarray) -> None:
        """Seed every seed's slice with the flat prior block."""
        row_max = prior_row_max(values, *self._layout)
        for s in range(len(self._batch)):
            self.import_seed(s, values, row_max, None, None)

    def greedy_choices(self) -> list[list[int]]:
        """Every seed's fully-greedy walk over its argmax cache."""
        mirror = self._mirror if self._mirror is not None else self.arg_max.tolist()
        walks = []
        for greedy in mirror:
            walk = [0] * len(self._q_parent)
            for i, parent in enumerate(self._q_parent):
                walk[i] = greedy[i][0 if parent < 0 else walk[parent]]
            walks.append(walk)
        return walks
