"""Compiled episode kernels: the search phase's fused inner loop.

The QS-DNN hot path is per-episode: the sequential epsilon-greedy
rollout walk, the online eq. (2) update sweep, and the replay chain
(whose transitions bootstrap from each other and therefore cannot
vectorize).  This package moves that whole path behind one dispatch
API with two interchangeable backends:

* ``numba`` — `numba`-JIT kernels over the flat-array state of
  :class:`~repro.core.qtable.QTable` and the
  :class:`~repro.engine.pricing.CostEngine` views; one compiled call
  runs a whole episode (rollout + pricing + eq. (2) + replay).
  Optional: auto-detected, never required.
* ``reference`` — pure-Python flat-list mirrors of the same state,
  running the exact same arithmetic in the same order.  This is the
  correctness anchor and the fallback when numba is absent.

Both backends are bit-identical: every floating-point operation is an
IEEE-754 double applied in the same sequence, so the same seeds produce
the same Q tables, the same ``best_ms``, and the same per-episode
curves (property-tested in ``tests/test_core_kernels.py``).

A third spelling, ``mega``, names the structure-of-arrays multi-seed
runner kind (:mod:`repro.core.kernels.mega`): one ``numba.prange``
dispatch per episode running *all* K seeds, built from the very same
scalar kernels as the per-seed numba backend.  ``mega`` is a routing
choice, not a third arithmetic: in scalar contexts (single-seed
searches) it resolves to the per-seed backend, and ``MultiSeedSearch``
auto-routes K >= :data:`MEGA_SEED_THRESHOLD` sweeps through it
whenever numba is available (see :func:`mega_selected`).

Searches never step runners directly: the one episode loop
(:func:`repro.core.search.run_episodes`) drives a *runner kind* — K
per-seed runners (:class:`~repro.core.search.ScalarKind`), a numpy
seed batch, or :class:`~repro.core.kernels.mega.MegaState` — and the
scalar kind makes exactly the runner calls below.

Backend selection: an explicit name always wins; ``"auto"`` honors the
``REPRO_KERNEL_BACKEND`` environment variable and otherwise picks
``numba`` when importable, ``reference`` when not.

The runner protocol (both backends):

* ``rollout(explore, explored)`` — one epsilon-greedy decision walk
  (``explored is None`` → fully greedy; ``explore is None`` → every
  decision explored; both given → per-layer mix).  Fills ``choices``.
* ``rollout_price(explore, explored) -> costs`` — rollout plus the
  shaped per-layer cost vector (bitwise equal to
  ``CostEngine.layer_costs``).
* ``draw_replay_order(rng) -> perm | None`` — the replay order over
  the ring as it will stand after the episode's pushes, drawn into a
  preallocated scratch (stream-identical to ``rng.permutation``);
  None when replay is disabled.
* ``learn(rewards, perm)`` — the online eq. (2) sweep over the walked
  episode, the replay-ring pushes, and (``perm`` given) the full
  replay pass in that order.
* ``episode(explore, explored, perm) -> costs`` — all of the above
  fused into one call with ``rewards = -costs`` (the reward-shaping
  default).
* ``snapshot()`` — a copy of the episode's choices (best tracking).
* ``finalize()`` — flush backend-local state back into the
  :class:`QTable` (no-op for the numba backend, which mutates the
  flat arrays in place).  Idempotent, so drivers may call it mid-run
  to materialize a checkpoint.
* ``export_ring() -> dict | None`` / ``import_ring(ring)`` — the
  replay ring as backend-neutral checkpoint rows
  ``(layer, row, action, next_row, reward)`` in slot order plus the
  fill/position counters (see :mod:`repro.core.checkpoint`); None
  when replay is disabled.  Import runs against a freshly built
  runner whose QTable was already restored.

Randomness never crosses the kernel boundary: the episode loop draws
every episode's exploration mask and uniform actions, and
``draw_replay_order`` the replay permutation, from the same named RNG
streams as always, so both backends consume byte-identical entropy.
"""

from __future__ import annotations

import os

from repro.errors import ConfigError

#: Environment variable overriding ``"auto"`` backend resolution.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Concrete per-seed backend names (resolution targets of ``"auto"``).
BACKENDS = ("numba", "reference")

#: Every accepted ``kernel`` spelling (configs, jobs, CLI flags).
KERNEL_CHOICES = ("auto", "numba", "reference", "mega")

#: ``"auto"`` multi-seed sweeps with at least this many seeds route
#: through the mega path when numba is available (below it the
#: per-seed lockstep paths win on dispatch overhead).
MEGA_SEED_THRESHOLD = 64

_numba_cache: bool | None = None


def numba_available() -> bool:
    """Whether the numba JIT backend can be imported (cached)."""
    global _numba_cache
    if _numba_cache is None:
        try:
            import numba  # noqa: F401
        except Exception:
            _numba_cache = False
        else:
            _numba_cache = True
    return _numba_cache


def requested_backend(choice: str = "auto") -> str:
    """The effective backend request after applying the environment:
    the explicit ``choice`` when given, else ``REPRO_KERNEL_BACKEND``,
    else ``"auto"``.  May return ``"mega"`` — callers that need a
    concrete per-seed backend go through :func:`resolve_backend`."""
    name = (choice or "auto").strip().lower()
    if name == "auto":
        env = os.environ.get(ENV_VAR, "").strip().lower()
        if env and env != "auto":
            name = env
    return name


def resolve_backend(choice: str = "auto") -> str:
    """Resolve a backend request to a concrete per-seed backend name.

    ``choice`` is one of :data:`KERNEL_CHOICES` (a config value or CLI
    flag).  ``"auto"`` consults ``REPRO_KERNEL_BACKEND`` and falls back
    to auto-detection; ``"mega"`` resolves to its per-seed arithmetic
    twin (numba when available, the reference mirror otherwise) so
    scalar contexts handed a mega request still run the identical
    arithmetic; an explicit request for a missing backend fails loudly
    rather than silently degrading.
    """
    name = requested_backend(choice)
    if name in ("auto", "mega"):
        return "numba" if numba_available() else "reference"
    if name not in BACKENDS:
        raise ConfigError(
            f"unknown kernel backend {name!r}; "
            "have auto, numba, reference, mega"
        )
    if name == "numba" and not numba_available():
        raise ConfigError(
            "kernel backend 'numba' requested but numba is not importable; "
            "pip install numba or use --kernel reference"
        )
    return name


def mega_selected(choice: str, num_seeds: int) -> bool:
    """Whether a K-seed sweep should run the mega SoA path.

    Explicit ``"mega"`` (config, CLI flag, or ``REPRO_KERNEL_BACKEND``)
    always wins — including without numba, where the kernels run as
    plain Python (the correctness anchor the property tests drive).
    ``"auto"`` opts in only for K >= :data:`MEGA_SEED_THRESHOLD` *and*
    with numba importable: below the threshold the per-seed lockstep
    paths win, and auto-routing a thousand pure-Python seed loops
    through mega would be a pathological slowdown, not a fast path.
    """
    name = requested_backend(choice)
    if name == "mega":
        return True
    return (
        name == "auto"
        and num_seeds >= MEGA_SEED_THRESHOLD
        and numba_available()
    )


def make_runner(
    engine,
    qtable,
    q_parent,
    *,
    replay_enabled: bool,
    replay_capacity: int,
    backend: str = "auto",
):
    """Build an episode runner over ``(engine, qtable)`` state.

    ``q_parent[i]`` is the layer whose choice selects layer ``i``'s Q
    row (-1 for virtual-start layers).  The returned runner implements
    the protocol described in the module docstring; its ``backend``
    attribute names the concrete backend that was resolved.
    """
    name = resolve_backend(backend)
    if name == "numba":
        from repro.core.kernels import numba_backend

        return numba_backend.NumbaRunner(
            engine, qtable, q_parent, replay_enabled, replay_capacity
        )
    from repro.core.kernels import reference

    return reference.ReferenceRunner(
        engine, qtable, q_parent, replay_enabled, replay_capacity
    )
