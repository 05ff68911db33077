"""Mega-batch episode kernels: K lockstep seeds per compiled dispatch.

The per-seed kernel backends (:mod:`repro.core.kernels.numba_backend`,
:mod:`repro.core.kernels.reference`) fuse one seed's episode into one
call; a thousand-seed sweep still pays a thousand Python dispatches per
episode.  This module restructures the whole multi-seed state as
structure-of-arrays over the seed axis K —

* ``q``        — ``(K, Q)`` float64, every seed's flat Q data block
  (the same contiguous layout as :meth:`QTable.flat`, one row per
  seed);
* ``row_max``  — ``(K, R)`` float64 per-seed row-max caches;
* ``visited``  — ``(K, Q)`` bool visit flags (``(K, 0)`` unless
  ``first_visit_bootstrap``);
* ``ring``     — ``(K, capacity, 5)`` float64 replay rings (columns
  ``layer, row, action, next_row, reward``; integers stored as exact
  doubles);

— and fuses the *across-seed* loop of each episode phase into a single
``numba.prange`` dispatch.  Inside the parallel region every seed runs
the exact scalar kernels of the per-seed numba backend (``_rollout``,
``_price``, ``_apply_update``) over its own array slices, so each
seed's arithmetic is the same IEEE-754 sequence as an independent
single-seed :class:`~repro.core.search.QSDNNSearch` run — bit-identity
per seed is inherited, not re-proven.

Seeds advance in lockstep, so the replay ring's fill/position counters
are identical across seeds and live as two Python scalars on the state
(:meth:`MegaState.advance_ring`), not per seed.  :class:`MegaState` is
the ``mega`` runner kind of :func:`repro.core.search.run_episodes`,
which draws every seed's entropy and owns everything but the arrays.

Without numba the ``njit`` decorator degrades to a no-op and
``prange`` to ``range``: the kernels run as plain Python over the same
arrays — far too slow for real sweeps (auto-routing never selects mega
without numba) but exactly right for pinning the algorithms bit-for-bit
in no-JIT environments.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.numba_backend import (
    _MODE_EXPLORE,
    _MODE_GREEDY,
    _MODE_MIXED,
    _apply_update,
    _price,
    _rollout,
)
from repro.core.priors import prior_row_max
from repro.core.qtable import QTable

try:
    from numba import njit, prange
except ImportError:  # pragma: no cover - exercised in no-numba installs
    prange = range

    def njit(**_kwargs):
        def passthrough(func):
            return func

        return passthrough


_EMPTY_BOOL_2D = np.empty((0, 0), dtype=np.bool_)
_EMPTY_I64_2D = np.empty((0, 0), dtype=np.int64)


@njit(cache=True)
def _seed_learn(
    qstate, choices, rows, rewards, eq2, fvb, replay_on, ring, capacity, fill, pos, perm
):
    """One seed's eq. (2) sweep + ring pushes + replay pass.

    ``ring`` is the seed's ``(capacity, 5)`` float slab; transitions
    round-trip through it losslessly (layer/row/action/next_row are
    small integers, exact as doubles).  The update sequence is
    identical to the per-seed backends' ``_learn``.
    """
    num_layers = choices.shape[0]
    last = num_layers - 1
    for i in range(num_layers):
        row = rows[i]
        action = choices[i]
        reward = rewards[i]
        next_row = rows[i + 1] if i < last else 0
        _apply_update(qstate, num_layers, i, row, action, reward, next_row, eq2, fvb)
        if replay_on:
            ring[pos, 0] = i
            ring[pos, 1] = row
            ring[pos, 2] = action
            ring[pos, 3] = next_row
            ring[pos, 4] = reward
            if fill < capacity:
                fill += 1
            pos = (pos + 1) % capacity
    if replay_on:
        for k in range(perm.shape[0]):
            t = perm[k]
            _apply_update(
                qstate,
                num_layers,
                np.int64(ring[t, 0]),
                np.int64(ring[t, 1]),
                np.int64(ring[t, 2]),
                ring[t, 4],
                np.int64(ring[t, 3]),
                eq2,
                fvb,
            )


@njit(cache=True, parallel=True)
def _mega_rollout(
    q2, rm2, vis2, q_off, rm_off, n_act, q_parent, fvb, mode, explore2, explored2,
    choices2, rows2,
):
    for s in prange(q2.shape[0]):
        _rollout(
            (q2[s], rm2[s], vis2[s], q_off, rm_off, n_act),
            q_parent,
            fvb,
            mode,
            explore2[s] if explore2.shape[0] else explore2.reshape(-1),
            explored2[s] if explored2.shape[0] else explored2.reshape(-1),
            choices2[s],
            rows2[s],
        )


@njit(cache=True, parallel=True)
def _mega_rollout_price(
    q2, rm2, vis2, q_off, rm_off, n_act, q_parent, fvb, mode, explore2, explored2,
    choices2, rows2, pricing, max_actions, costs2,
):
    for s in prange(q2.shape[0]):
        _rollout(
            (q2[s], rm2[s], vis2[s], q_off, rm_off, n_act),
            q_parent,
            fvb,
            mode,
            explore2[s] if explore2.shape[0] else explore2.reshape(-1),
            explored2[s] if explored2.shape[0] else explored2.reshape(-1),
            choices2[s],
            rows2[s],
        )
        _price(pricing, max_actions, choices2[s], costs2[s])


@njit(cache=True, parallel=True)
def _mega_learn(
    q2, rm2, vis2, q_off, rm_off, n_act, choices2, rows2, rewards2, eq2, fvb,
    replay_on, ring3, capacity, fill, pos, perm2,
):
    for s in prange(q2.shape[0]):
        _seed_learn(
            (q2[s], rm2[s], vis2[s], q_off, rm_off, n_act),
            choices2[s],
            rows2[s],
            rewards2[s],
            eq2,
            fvb,
            replay_on,
            ring3[s],
            capacity,
            fill,
            pos,
            perm2[s] if perm2.shape[0] else perm2.reshape(-1),
        )


@njit(cache=True, parallel=True)
def _mega_episode(
    q2, rm2, vis2, q_off, rm_off, n_act, q_parent, fvb, mode, explore2, explored2,
    choices2, rows2, pricing, max_actions, costs2, rewards2, eq2, replay_on, ring3,
    capacity, fill, pos, perm2,
):
    num_layers = q_parent.shape[0]
    for s in prange(q2.shape[0]):
        qstate = (q2[s], rm2[s], vis2[s], q_off, rm_off, n_act)
        _rollout(
            qstate,
            q_parent,
            fvb,
            mode,
            explore2[s] if explore2.shape[0] else explore2.reshape(-1),
            explored2[s] if explored2.shape[0] else explored2.reshape(-1),
            choices2[s],
            rows2[s],
        )
        _price(pricing, max_actions, choices2[s], costs2[s])
        for i in range(num_layers):
            rewards2[s, i] = -costs2[s, i]
        _seed_learn(
            qstate,
            choices2[s],
            rows2[s],
            rewards2[s],
            eq2,
            fvb,
            replay_on,
            ring3[s],
            capacity,
            fill,
            pos,
            perm2[s] if perm2.shape[0] else perm2.reshape(-1),
        )


_warmed = False


def ensure_warm() -> None:
    """Compile (or cache-load) every mega kernel on tiny K=2 state."""
    global _warmed
    if _warmed:
        return
    for fvb in (False, True):
        state = MegaState(
            num_seeds=2,
            num_actions=[1, 1],
            row_sizes=[1, 1],
            q_parent=np.array([-1, 0], dtype=np.int64),
            pricing=(
                np.zeros(2, dtype=np.float64),
                np.array([0, 1], dtype=np.int64),
                np.zeros(0, dtype=np.float64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
            ),
            max_actions=1,
            learning_rate=0.05,
            discount=0.9,
            first_visit_bootstrap=fvb,
            replay_enabled=True,
            replay_capacity=4,
        )
        explored = np.zeros((2, 2), dtype=np.int64)
        perm = np.zeros((2, 1), dtype=np.int64)
        state.episode(None, explored, perm)
        state.rollout_price(None, None)
        state.learn(np.zeros((2, 2), dtype=np.float64), None)
        state.greedy_choices()
    _warmed = True


class MegaState:
    """The structure-of-arrays state of K lockstep seeds: the ``mega``
    runner kind of :func:`repro.core.search.run_episodes`.

    Construction mirrors K independent :class:`QTable` instances: a
    single template table supplies the flat layout (offsets, initial
    zeros), tiled along a leading seed axis.  All dispatch methods
    mutate the arrays in place.
    """

    backend = "mega"

    def __init__(
        self,
        num_seeds: int,
        num_actions: list[int],
        row_sizes: list[int],
        q_parent: np.ndarray,
        pricing: tuple,
        max_actions: int,
        learning_rate: float,
        discount: float,
        first_visit_bootstrap: bool,
        replay_enabled: bool,
        replay_capacity: int,
    ) -> None:
        template = QTable(
            list(num_actions),
            learning_rate,
            discount,
            row_sizes=list(row_sizes),
            first_visit_bootstrap=first_visit_bootstrap,
        ).flat()
        self.num_seeds = num_seeds
        self.num_layers = len(num_actions)
        self._layout = (list(num_actions), list(row_sizes))
        self.q_offsets = template.q_offsets
        self.rm_offsets = template.rm_offsets
        self.num_actions = template.num_actions
        self.q_parent = np.asarray(q_parent, dtype=np.int64)
        self.fvb = first_visit_bootstrap
        self.eq2 = (learning_rate, 1.0 - learning_rate, discount)
        self.pricing = pricing
        self.max_actions = max_actions
        # One contiguous block per state component, seeds along axis 0.
        self.q = np.zeros((num_seeds, template.data.shape[0]), dtype=np.float64)
        self.row_max = np.zeros(
            (num_seeds, template.row_max.shape[0]), dtype=np.float64
        )
        self.visited = np.zeros(
            (num_seeds, template.visited.shape[0]), dtype=np.bool_
        )
        self.choices = np.zeros((num_seeds, self.num_layers), dtype=np.int64)
        self.rows = np.zeros((num_seeds, self.num_layers), dtype=np.int64)
        self.costs = np.zeros((num_seeds, self.num_layers), dtype=np.float64)
        self._rewards = np.zeros((num_seeds, self.num_layers), dtype=np.float64)
        self.replay_enabled = replay_enabled
        self.capacity = replay_capacity
        # Allocated per seed even with replay off: the kernels slice
        # ``ring[s]`` unconditionally (numba specializes on one type),
        # they just never read or write it when ``replay_on`` is False.
        self.ring = np.zeros(
            (num_seeds, max(replay_capacity, 1), 5), dtype=np.float64
        )
        self._perm = (
            np.empty((num_seeds, replay_capacity), dtype=np.int64)
            if replay_enabled
            else None
        )
        self._iota = np.arange(replay_capacity, dtype=np.int64)
        #: Lockstep ring counters — identical across seeds by
        #: construction, so they live once, not per seed.
        self.fill = 0
        self.pos = 0

    @staticmethod
    def _decision_args(explore2, explored2):
        if explored2 is None:
            return _MODE_GREEDY, _EMPTY_BOOL_2D, _EMPTY_I64_2D
        if explore2 is None:
            return _MODE_EXPLORE, _EMPTY_BOOL_2D, explored2
        return _MODE_MIXED, explore2, explored2

    def replay_orders(self, replay_rngs):
        """Every seed's replay order over its ring as it will stand
        after the next episode's pushes, shuffled per seed exactly like
        ``draw_replay_order`` (None with replay off)."""
        if not self.replay_enabled:
            return None
        stored = min(self.fill + self.num_layers, self.capacity)
        orders = self._perm[:, :stored]
        for row, rng in zip(orders, replay_rngs):
            row[:] = self._iota[:stored]
            rng.shuffle(row)
        return orders

    def rollout_price(self, explore2, explored2) -> np.ndarray:
        """Rollout plus per-seed shaped cost vectors (``(K, L)``)."""
        mode, flags, picks = self._decision_args(explore2, explored2)
        _mega_rollout_price(
            self.q, self.row_max, self.visited,
            self.q_offsets, self.rm_offsets, self.num_actions,
            self.q_parent, self.fvb, mode, flags, picks,
            self.choices, self.rows, self.pricing, self.max_actions, self.costs,
        )
        return self.costs

    def learn(self, rewards2: np.ndarray, perm2) -> None:
        """Every seed's eq. (2) sweep + ring pushes + replay pass."""
        _mega_learn(
            self.q, self.row_max, self.visited,
            self.q_offsets, self.rm_offsets, self.num_actions,
            self.choices, self.rows, rewards2, self.eq2, self.fvb,
            self.replay_enabled, self.ring, self.capacity, self.fill, self.pos,
            perm2 if perm2 is not None else _EMPTY_I64_2D,
        )
        self.advance_ring()

    def episode(self, explore2, explored2, perm2) -> np.ndarray:
        """The fully fused episode (rewards = -costs); returns costs."""
        mode, flags, picks = self._decision_args(explore2, explored2)
        _mega_episode(
            self.q, self.row_max, self.visited,
            self.q_offsets, self.rm_offsets, self.num_actions,
            self.q_parent, self.fvb, mode, flags, picks,
            self.choices, self.rows, self.pricing, self.max_actions,
            self.costs, self._rewards, self.eq2,
            self.replay_enabled, self.ring, self.capacity, self.fill, self.pos,
            perm2 if perm2 is not None else _EMPTY_I64_2D,
        )
        self.advance_ring()
        return self.costs

    def advance_ring(self) -> None:
        """Advance the lockstep fill/position counters by one episode's
        pushes (every seed pushes exactly L transitions)."""
        if not self.replay_enabled:
            return
        self.fill = min(self.fill + self.num_layers, self.capacity)
        self.pos = (self.pos + self.num_layers) % self.capacity

    def snapshot(self, s: int) -> np.ndarray:
        """A copy of seed ``s``'s current choices."""
        return self.choices[s].copy()

    def export_seed(self, s: int):
        """Seed ``s``'s state: ``q[s]`` *is* its flat ``QTable`` block,
        so export is pure slicing."""
        ring = None
        if self.replay_enabled:
            rows = [
                [int(i), int(row), int(a), int(nr), float(reward)]
                for i, row, a, nr, reward in self.ring[s, : self.fill].tolist()
            ]
            ring = {"rows": rows, "fill": int(self.fill), "pos": int(self.pos)}
        return self.q[s], self.row_max[s], self.visited[s], ring

    def import_seed(self, s: int, q, row_max, visited, ring) -> None:
        """Write one seed's flat state (and the shared ring counters)."""
        self.q[s] = q
        self.row_max[s] = row_max
        self.visited[s] = visited
        if ring is not None:
            # fill/pos are a function of the episode index (checked on
            # resume), so every seed restores the same counters.
            self.ring[s, : ring["fill"]] = np.reshape(ring["rows"], (-1, 5))
            self.fill = int(ring["fill"])
            self.pos = int(ring["pos"])

    def load_prior(self, values: np.ndarray) -> None:
        """Tile one flat prior block across the seed axis — exactly
        what K independent ``QTable.load_prior`` calls would write."""
        self.q[:] = values
        self.row_max[:] = prior_row_max(values, *self._layout)

    def greedy_choices(self) -> np.ndarray:
        """Every seed's fully-greedy decision walk over the final Q
        state (bitwise ``QTable.greedy_rollout`` per seed)."""
        _mega_rollout(
            self.q, self.row_max, self.visited,
            self.q_offsets, self.rm_offsets, self.num_actions,
            self.q_parent, self.fvb, _MODE_GREEDY, _EMPTY_BOOL_2D, _EMPTY_I64_2D,
            self.choices, self.rows,
        )
        return self.choices


__all__ = ["MegaState", "ensure_warm"]
