"""QS-DNN's search phase: Algorithm 1 of the paper.

Per episode the agent walks the network in topological order choosing a
primitive per layer with an epsilon-greedy policy over the Q table.
Rewards are shaped: each layer receives minus its own LUT latency, with
any compatibility penalties on its incoming edges charged to it (paper
§IV-C and §V-B: "If any incompatibility has been found between two
layers, the extra penalty is added to the inference time of the latter
layer").  After the rollout every transition is learned online (eq. 2)
and pushed to the replay buffer, which is then replayed in full.

Branch handling: the Q state chain follows topological order, but the
reward of a layer sums the penalty matrices of *all* its graph
predecessors — so residual joins and inception branches price their
conversions exactly, even though the MDP sees a linear state sequence
(the paper's Fig. 3 "exceptions and branches are handled").

One episode loop serves every search.  :func:`run_episodes` steps K
seeds (K = 1 for :class:`QSDNNSearch`, K for
:class:`~repro.core.multi_seed.MultiSeedSearch`) through a *runner
kind*, which owns the Q state, the replay rings and the per-episode
arithmetic of all K seeds.  The loop owns everything else: the epsilon
schedule, every seed's named policy/replay streams and its exploration
entropy, best tracking and curves, checkpoint capture and resume, the
warm prior, and the polish/greedy/packaging finalization.  A kind
implements:

* ``backend`` — the ``kernel_backend`` label its results carry;
* ``replay_orders(replay_rngs)`` — every seed's replay order over its
  ring as it will stand after the episode's pushes (None when replay
  is off);
* ``episode(explore, explored, orders) -> costs`` — one episode for all
  K seeds with shaped rewards, returning the ``(K, L)`` per-layer
  costs; ``rollout_price(explore, explored)`` + ``learn(rewards,
  orders)`` is the same episode split for shaping off (the terminal
  reward needs the total first).  ``explored is None`` means greedy,
  ``explore is None`` full exploration, both ``(K, L)`` arrays a
  per-layer mix;
* ``snapshot(s)`` — seed ``s``'s current choices;
* ``export_seed(s)`` / ``import_seed(s, q, row_max, visited, ring)`` —
  seed ``s``'s learning state in the flat layout of
  :meth:`~repro.core.qtable.QTable.flat` plus the canonical ring rows
  of :mod:`repro.core.checkpoint`;
* ``load_prior(values)`` and ``greedy_choices()``.

Three kinds exist: :class:`ScalarKind` (per-seed kernel runners, the
only kind single-seed searches use), the numpy seed batch
:class:`~repro.core.multi_seed.VectorizedKind`, and the SoA block
:class:`~repro.core.kernels.mega.MegaState`.

The search is *anytime*: ``run(checkpoint_every=N, on_checkpoint=f)``
captures a :mod:`repro.core.checkpoint` snapshot at every Nth episode
boundary (drawing no randomness, so the RNG streams are untouched) and
hands it to the callback; a callback returning ``False`` stops the run
with a :class:`~repro.errors.PreemptedError` carrying that snapshot.
``run(resume=ckpt)`` continues from a snapshot and finishes
bitwise-identical — same ``best_ms``, ``curve_ms`` and flat Q state —
to the run that was never interrupted (exactness contract 8,
``docs/architecture.md``).
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.core import checkpoint as ckpt_mod
from repro.core.config import SearchConfig
from repro.core.kernels import make_runner, resolve_backend
from repro.core.polish import coordinate_descent
from repro.core.priors import q_layout
from repro.core.qtable import QTable
from repro.core.result import SearchResult
from repro.engine.lut import LatencyTable
from repro.engine.pricing import CostEngine
from repro.errors import ConfigError, PreemptedError
from repro.utils.rng import RngStream

#: Cap on one seed's pre-drawn full-exploration entropy, in decisions:
#: a run of explore episodes is block-drawn ``(run, L)`` at a time with
#: ``run * L`` at most this (a row-major block is bitwise the same
#: stream as ``run`` per-episode draws).
EXPLORE_BLOCK = 8192


class ScalarKind:
    """K seeds as K per-seed episode runners, stepped one after another.

    Each seed owns a :class:`QTable` and a :func:`make_runner` runner
    and is driven with exactly the calls a lone search makes —
    ``runner.episode`` (``rollout_price`` + ``learn`` with shaping
    off) and ``runner.draw_replay_order`` — so a member of a K-seed
    sweep is an independent run by construction.
    """

    def __init__(self, engine, idx, config: SearchConfig, num_seeds: int) -> None:
        self._engine = engine
        self._q_parent = idx.q_parent
        self._config = config
        self.backend = resolve_backend(config.kernel)
        num_actions, row_sizes = q_layout(idx)
        self.qtables = [
            QTable(
                num_actions,
                config.learning_rate,
                config.discount,
                row_sizes=row_sizes,
                first_visit_bootstrap=config.first_visit_bootstrap,
            )
            for _ in range(num_seeds)
        ]
        self.runners = [self._runner(qtable) for qtable in self.qtables]
        self._costs = np.empty((num_seeds, len(num_actions)), dtype=np.float64)

    def _runner(self, qtable):
        # Built after the flat arrays hold their start state: the
        # reference backend mirrors them at construction.
        return make_runner(
            self._engine,
            qtable,
            self._q_parent,
            replay_enabled=self._config.replay_enabled,
            replay_capacity=self._config.replay_capacity,
            backend=self.backend,
        )

    def replay_orders(self, replay_rngs):
        """Each runner's ``draw_replay_order`` from its seed's stream."""
        return [
            runner.draw_replay_order(rng)
            for runner, rng in zip(self.runners, replay_rngs)
        ]

    def episode(self, explore, explored, orders) -> np.ndarray:
        """One fused ``runner.episode`` call per seed; ``(K, L)`` costs."""
        costs = self._costs
        for s, runner in enumerate(self.runners):
            costs[s] = runner.episode(
                None if explore is None else explore[s],
                None if explored is None else explored[s],
                orders[s],
            )
        return costs

    def rollout_price(self, explore, explored) -> np.ndarray:
        """Each seed's rollout and per-layer costs, ``(K, L)``."""
        costs = self._costs
        for s, runner in enumerate(self.runners):
            costs[s] = runner.rollout_price(
                None if explore is None else explore[s],
                None if explored is None else explored[s],
            )
        return costs

    def learn(self, rewards: np.ndarray, orders) -> None:
        """Each seed's eq. (2) sweep, ring pushes and replay pass."""
        for s, runner in enumerate(self.runners):
            runner.learn(rewards[s], orders[s])

    def snapshot(self, s: int):
        """A copy of seed ``s``'s current choices."""
        return self.runners[s].snapshot()

    def export_seed(self, s: int):
        """Seed ``s``'s flat Q/row-max/visited arrays and ring rows."""
        runner = self.runners[s]
        runner.finalize()
        flat = self.qtables[s].flat()
        return flat.data, flat.row_max, flat.visited, runner.export_ring()

    def import_seed(self, s: int, q, row_max, visited, ring) -> None:
        """Restore seed ``s`` and rebuild its runner over the state."""
        flat = self.qtables[s].flat()
        flat.data[:] = q
        flat.row_max[:] = row_max
        flat.visited[:] = visited
        self.runners[s] = self._runner(self.qtables[s])
        self.runners[s].import_ring(ring)

    def load_prior(self, values: np.ndarray) -> None:
        """Seed every table with the flat prior block."""
        for s, qtable in enumerate(self.qtables):
            qtable.load_prior(values)
            self.runners[s] = self._runner(qtable)

    def greedy_choices(self) -> list[list[int]]:
        """Every seed's fully-greedy walk over its final Q table."""
        for runner in self.runners:
            runner.finalize()
        return [
            qtable.greedy_rollout(parents=self._q_parent)
            for qtable in self.qtables
        ]


def run_episodes(
    search,
    kind,
    seeds: list[int],
    ckpt_kind: str,
    checkpoint_every: int | None = None,
    on_checkpoint=None,
    resume: dict | None = None,
) -> tuple[list[SearchResult], int, float]:
    """Run Algorithm 1 for every seed in ``seeds`` through ``kind``.

    ``search`` supplies the scenario (``lut``, ``config``, ``prior``,
    ``indexed``, ``engine``); ``ckpt_kind`` names the checkpoints this
    run captures and accepts (``"search"`` or ``"multi-seed"``).
    Returns the per-seed results in seed order, the number of episode
    steps this call ran (one per episode whatever K, counted from the
    checkpoint on resume) and the total wall clock, which the results
    share equally.
    """
    cfg = search.config
    lut = search.lut
    engine = search.engine
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ConfigError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    num_seeds = len(seeds)
    counts = np.asarray(search.indexed.num_actions, dtype=np.int64)
    num_layers = len(counts)
    episodes = cfg.episodes
    streams = [RngStream(seed, "qsdnn", lut.graph_name, lut.mode) for seed in seeds]
    policy_rngs = [stream.child("policy") for stream in streams]
    replay_rngs = [stream.child("replay") for stream in streams]

    best_total = [np.inf] * num_seeds
    best_choices = np.zeros((num_seeds, num_layers), dtype=np.int64)
    resumed_curves = np.zeros((0, num_seeds))
    epsilon_trace: list[float] = []
    start_episode = 0
    elapsed_s = 0.0
    if resume is not None:
        ckpt_mod.check_resume(
            resume,
            kind=ckpt_kind,
            graph=lut.graph_name,
            mode=lut.mode,
            episodes=episodes,
            seeds=seeds,
            warm_start=cfg.warm_start,
        )
        start_episode = int(resume["episode"])
        elapsed_s = float(resume.get("elapsed_s", 0.0))
        epsilon_trace = list(resume["epsilon_trace"])
        num_actions, row_sizes = q_layout(search.indexed)
        q_size = sum(n * r for n, r in zip(num_actions, row_sizes))
        sizes = (q_size, sum(row_sizes), q_size if cfg.first_visit_bootstrap else 0)
        capacity = cfg.replay_capacity if cfg.replay_enabled else None
        for s, snap in enumerate(resume["seeds"]):
            kind.import_seed(
                s,
                *ckpt_mod.seed_state(
                    snap,
                    sizes=sizes,
                    replay_capacity=capacity,
                    episode=start_episode,
                    num_layers=num_layers,
                ),
            )
            ckpt_mod.set_rng_state(policy_rngs[s], snap["policy_rng"])
            ckpt_mod.set_rng_state(replay_rngs[s], snap["replay_rng"])
            best_total[s] = snap["best_total"]
            if snap["best_choices"] is not None:
                best_choices[s] = snap["best_choices"]
        if cfg.track_curve:
            resumed_curves = np.array(
                [snap["curve"] for snap in resume["seeds"]], dtype=np.float64
            ).reshape(num_seeds, -1).T
    elif cfg.warm_start != "off" and search.prior is not None:
        # Resolved once per run: every seed loads the same block, which
        # is what each seed's independent run would load.  A resumed
        # run never re-applies the prior — its snapshots carry it.
        values = search.prior.prior_for(lut, cfg.discount)
        if values is not None:
            kind.load_prior(values)

    shaping = cfg.reward_shaping
    track_curve = cfg.track_curve
    #: Row e holds every seed's total of the e-th tracked episode.
    tracked = len(resumed_curves)
    curve_log = np.empty(
        (tracked + episodes - start_episode if track_curve else 0, num_seeds)
    )
    curve_log[:tracked] = resumed_curves
    eps = [cfg.epsilon.epsilon_for(e) for e in range(episodes)]
    explore_buf = np.empty((num_seeds, num_layers), dtype=np.bool_)
    explored_buf = np.empty((num_seeds, num_layers), dtype=np.int64)
    block_cap = max(1, EXPLORE_BLOCK // num_layers)
    block: np.ndarray | None = None
    block_pos = block_len = 0
    started = time.perf_counter()

    for episode in range(start_episode, episodes):
        epsilon = eps[episode]
        # -- the episode's exploration entropy, per seed
        if epsilon >= 1.0:
            if block_pos == block_len:
                run = 1
                while (
                    episode + run < episodes
                    and eps[episode + run] >= 1.0
                    and run < block_cap
                    # Never across a checkpoint boundary: capture must
                    # find the policy streams at exactly that episode.
                    and not (
                        checkpoint_every
                        and (episode + run) % checkpoint_every == 0
                    )
                ):
                    run += 1
                block = np.empty((num_seeds, run, num_layers), dtype=np.int64)
                for s, rng in enumerate(policy_rngs):
                    block[s] = rng.integers(0, counts[None, :], size=(run, num_layers))
                block_len = run
                block_pos = 0
            np.copyto(explored_buf, block[:, block_pos])
            block_pos += 1
            explore, explored = None, explored_buf
        elif epsilon <= 0.0:
            explore = explored = None
        else:
            for s, rng in enumerate(policy_rngs):
                explore_buf[s] = rng.random(num_layers) < epsilon
                explored_buf[s] = rng.integers(0, counts)
            explore, explored = explore_buf, explored_buf
        orders = kind.replay_orders(replay_rngs)
        # -- one episode for all K seeds: rollout + eq. (2) + replay
        if shaping:
            totals = kind.episode(explore, explored, orders).sum(axis=1)
        else:
            totals = kind.rollout_price(explore, explored).sum(axis=1)
            rewards = np.zeros((num_seeds, num_layers), dtype=np.float64)
            rewards[:, num_layers - 1] = -totals
            kind.learn(rewards, orders)
        for s, total in enumerate(totals.tolist()):
            if total < best_total[s]:
                best_total[s] = total
                best_choices[s] = kind.snapshot(s)
        if track_curve:
            curve_log[tracked] = totals
            tracked += 1
            epsilon_trace.append(epsilon)
        # -- anytime checkpoint (episode boundary; draws no RNG)
        if (
            checkpoint_every
            and on_checkpoint is not None
            and (episode + 1) % checkpoint_every == 0
            and episode + 1 < episodes
        ):
            curves = curve_log[:tracked].T.tolist()
            snapshot = ckpt_mod.build_checkpoint(
                kind=ckpt_kind,
                graph=lut.graph_name,
                mode=lut.mode,
                episodes=episodes,
                episode=episode + 1,
                kernel=cfg.kernel,
                elapsed_s=elapsed_s + (time.perf_counter() - started),
                epsilon_trace=epsilon_trace,
                warm_start=cfg.warm_start,
                seed_snaps=[
                    ckpt_mod.seed_snapshot(
                        seed,
                        kind.export_seed(s),
                        policy_rngs[s],
                        replay_rngs[s],
                        best_total[s],
                        best_choices[s],
                        curves[s],
                    )
                    for s, seed in enumerate(seeds)
                ],
            )
            if on_checkpoint(snapshot) is False:
                raise PreemptedError(snapshot)

    # -- finalization: polish, greedy policy, per-seed packaging
    greedy = kind.greedy_choices()
    curves = curve_log[:tracked].T.tolist()
    results = []
    for s, seed in enumerate(seeds):
        chosen = best_choices[s].copy()
        total = best_total[s]
        if cfg.polish_sweeps > 0:
            chosen, total = coordinate_descent(
                engine, chosen, max_sweeps=cfg.polish_sweeps
            )
        results.append(
            SearchResult(
                graph_name=lut.graph_name,
                method="qs-dnn",
                best_assignments=engine.assignments(chosen),
                best_ms=float(total),
                episodes=episodes,
                curve_ms=curves[s],
                epsilon_trace=list(epsilon_trace),
                config=cfg if seed == cfg.seed else replace(cfg, seed=seed),
                greedy_ms=float(engine.price(greedy[s])),
                kernel_backend=kind.backend,
                warm_start=cfg.warm_start,
            )
        )
    wall = elapsed_s + (time.perf_counter() - started)
    for result in results:
        result.wall_clock_s = wall / num_seeds
    return results, episodes - start_episode, wall


class QSDNNSearch:
    """The RL-based search engine over a profiled latency table.

    ``prior`` (any :class:`~repro.core.priors.QPrior`) seeds the Q
    table when ``config.warm_start`` is not ``"off"``; a prior that
    resolves to None leaves the zero init (cold start).  The knob and
    the prior travel together: ``warm_start`` labels the result and
    checkpoints, the prior supplies the values.
    """

    def __init__(
        self,
        lut: LatencyTable,
        config: SearchConfig | None = None,
        prior=None,
    ) -> None:
        self.lut = lut
        self.config = config or SearchConfig()
        self.prior = prior
        self.indexed = lut.indexed()
        self.engine: CostEngine = self.indexed.engine()

    # -- the search (Algorithm 1) ----------------------------------------------

    def run(
        self,
        checkpoint_every: int | None = None,
        on_checkpoint=None,
        resume: dict | None = None,
    ) -> SearchResult:
        """Run the full epsilon-schedule search; returns the best result.

        ``checkpoint_every=N`` with a callback captures a checkpoint
        after every Nth completed episode (never after the last — the
        run is about to finish anyway) and calls ``on_checkpoint(ckpt)``;
        a ``False`` return preempts the run with
        :class:`~repro.errors.PreemptedError` carrying the snapshot.
        ``resume`` continues from a decoded checkpoint dict.  The
        search always runs on the per-seed kernel backend
        (``kernel="mega"`` degrades to it: there is no K to batch).
        """
        results, _, _ = run_episodes(
            self,
            ScalarKind(self.engine, self.indexed, self.config, 1),
            [self.config.seed],
            "search",
            checkpoint_every,
            on_checkpoint,
            resume,
        )
        return results[0]
