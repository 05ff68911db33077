"""Anytime-search checkpoints: versioned, float-exact, backend-neutral.

A checkpoint is everything a QS-DNN search needs to continue from an
episode boundary and finish **bitwise-identical** to the uninterrupted
run: per seed the flat Q block with its row-max and visited caches
(the exact :meth:`~repro.core.qtable.QTable.flat` layout), the replay
ring with its fill/position counters, both named RNG streams'
bit-generator states, and the best-so-far tracking (best total, best
choices, latency curve); per run the episode index, epsilon trace and
accumulated wall clock.

The format is deliberately backend-neutral: the ring is stored as
``(layer, row, action, next_row, reward)`` rows in slot order — the
column layout of the mega SoA ring — and each runner kind (see
:mod:`repro.core.search`) exports/imports its own representation
losslessly through ``export_seed``/``import_seed``.  A checkpoint
captured under one kind or kernel backend therefore resumes under any
other, and the result is still bitwise equal (they all run identical
arithmetic).  Resume checks every snapshot against the resuming
search (:func:`seed_state`) before any kind sees it.

Serialization is plain JSON: Python emits shortest-round-trip float
literals, so every double survives encode/decode bit-for-bit (the same
guarantee the result-store codecs lean on), and NumPy bit-generator
states are dicts of (arbitrary-precision) ints, which JSON carries
exactly.  :data:`CHECKPOINT_FORMAT` versions the schema; decoding an
unknown version raises :class:`~repro.errors.CheckpointError` loudly
instead of resuming under semantics this code never implemented.

Capture draws **no** randomness and happens only at episode
boundaries, so the policy/replay streams of a checkpointing run are
byte-identical to a plain run — checkpointing never perturbs the
search it is snapshotting.
"""

from __future__ import annotations

import json

import numpy as np

from repro.errors import CheckpointError

#: Schema version of the checkpoint dict.  Bump on any change to the
#: captured fields or their meaning; decoding rejects other versions.
CHECKPOINT_FORMAT = 1

#: Job kinds that can checkpoint (the episode-loop searches).
CHECKPOINT_KINDS = ("search", "multi-seed")


# -- RNG state ------------------------------------------------------------


def rng_state(rng) -> dict:
    """A JSON-safe copy of a ``numpy.random.Generator``'s state.

    ``bit_generator.state`` is a dict of strings and ints (PCG64 keeps
    its 128-bit state/increment as Python ints), which JSON round-trips
    exactly.
    """
    state = rng.bit_generator.state
    return json.loads(json.dumps(state))


def set_rng_state(rng, state: dict) -> None:
    """Restore a generator to a previously captured state, exactly."""
    rng.bit_generator.state = state


# -- per-seed snapshots ---------------------------------------------------


def seed_snapshot(
    seed: int,
    state,
    policy_rng,
    replay_rng,
    best_total: float,
    best_choices,
    curve: list[float],
) -> dict:
    """Capture one seed's complete search state.

    ``state`` is the seed's ``(q, row_max, visited, ring)`` as a runner
    kind exports it: the flat arrays of :meth:`QTable.flat` and the
    canonical ring rows (None with replay off).  The snapshot copies
    them along with both RNG states and the best-so-far tracking.
    """
    q, row_max, visited, ring = state
    return {
        "seed": int(seed),
        "q": q.tolist(),
        "row_max": row_max.tolist(),
        "visited": [bool(v) for v in visited.tolist()],
        "ring": ring,
        "policy_rng": rng_state(policy_rng),
        "replay_rng": rng_state(replay_rng),
        "best_total": float(best_total),
        "best_choices": (
            [int(c) for c in best_choices] if best_choices is not None else None
        ),
        "curve": [float(c) for c in curve],
    }


def seed_state(
    snap: dict,
    *,
    sizes: tuple[int, int, int],
    replay_capacity: int | None,
    episode: int,
    num_layers: int,
) -> tuple:
    """One seed snapshot's ``(q, row_max, visited, ring)``, checked
    against the search that resumes it, or :class:`CheckpointError`.

    ``sizes`` are the search's flat Q, row-max and visited lengths;
    ``replay_capacity`` is None when it runs without replay.  A ring
    must be present exactly when replay is on, and must be the ring
    ``episode`` episodes of ``num_layers`` pushes leave behind in a
    ring of that capacity: anything else was captured under another
    configuration and would resume into a run that never existed.
    """
    q = np.asarray(snap["q"], dtype=np.float64)
    row_max = np.asarray(snap["row_max"], dtype=np.float64)
    visited = np.asarray(snap["visited"], dtype=np.bool_)
    got = (q.shape, row_max.shape, visited.shape)
    if got != tuple((n,) for n in sizes):
        raise CheckpointError(
            "checkpoint Q block does not match this search's layout "
            f"(got Q/row-max/visited shapes {got}, the search has "
            f"lengths {tuple(sizes)})"
        )
    ring = snap.get("ring")
    if (ring is None) != (replay_capacity is None):
        raise CheckpointError(
            f"checkpoint was captured with replay {'off' if ring is None else 'on'}, "
            f"this search runs replay {'off' if replay_capacity is None else 'on'}"
        )
    if ring is not None:
        pushed = episode * num_layers
        expected = (min(pushed, replay_capacity), pushed % replay_capacity)
        found = (ring["fill"], ring["pos"])
        if found != expected or len(ring["rows"]) != ring["fill"]:
            raise CheckpointError(
                f"checkpoint replay ring (fill/pos {found}, "
                f"{len(ring['rows'])} rows) is not what {episode} episodes "
                f"leave in a {replay_capacity}-transition ring "
                f"(fill/pos {expected})"
            )
    return q, row_max, visited, ring


# -- the run-level envelope ----------------------------------------------


def build_checkpoint(
    kind: str,
    graph: str,
    mode: str,
    episodes: int,
    episode: int,
    kernel: str,
    elapsed_s: float,
    epsilon_trace: list[float],
    seed_snaps: list[dict],
    warm_start: str = "off",
) -> dict:
    """Assemble the run-level checkpoint envelope.

    ``episode`` counts *completed* episodes — resume continues from
    that index.  ``best_ms`` is the headline best across seeds (what
    progress streams display); it is always finite because capture
    happens after at least one completed episode.  ``warm_start``
    records which Q-prior seeded the run; resume validates it so a
    warm checkpoint never silently continues under a cold label (the
    snapshot's Q block already carries the prior's effect — resume
    never re-applies priors).
    """
    ckpt = {
        "format": CHECKPOINT_FORMAT,
        "kind": kind,
        "graph": graph,
        "mode": mode,
        "episodes": int(episodes),
        "episode": int(episode),
        "kernel": kernel,
        "best_ms": min(s["best_total"] for s in seed_snaps),
        "elapsed_s": float(elapsed_s),
        "epsilon_trace": [float(e) for e in epsilon_trace],
        "seeds": seed_snaps,
    }
    # Cold checkpoints stay byte-identical to pre-prior builds (the
    # encoded text is part of the bitwise-off contract); the key only
    # appears for warm runs.
    if warm_start != "off":
        ckpt["warm_start"] = warm_start
    return ckpt


def encode_checkpoint(ckpt: dict) -> str:
    """The checkpoint as canonical JSON text (floats bitwise-exact)."""
    return json.dumps(ckpt, separators=(",", ":"))


def decode_checkpoint(text: str) -> dict:
    """Parse checkpoint text, rejecting unknown formats loudly."""
    try:
        ckpt = json.loads(text)
    except (ValueError, TypeError) as error:
        raise CheckpointError(f"checkpoint does not parse as JSON: {error}")
    if not isinstance(ckpt, dict):
        raise CheckpointError(
            f"checkpoint must be a JSON object, got {type(ckpt).__name__}"
        )
    version = ckpt.get("format")
    if version != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unknown checkpoint format {version!r}; this build reads "
            f"format {CHECKPOINT_FORMAT} — refusing to resume under "
            "semantics it cannot verify"
        )
    return ckpt


def check_resume(
    ckpt: dict,
    kind: str,
    graph: str,
    mode: str,
    episodes: int,
    seeds: list[int],
    warm_start: str = "off",
) -> None:
    """Verify a checkpoint belongs to this exact search, or raise.

    Resuming a checkpoint under a different graph, mode, episode
    budget, seed list or warm-start kind would silently answer a
    different question; every mismatch is a loud
    :class:`CheckpointError`.  Checkpoints written before the prior
    layer carry no ``warm_start`` key and count as ``"off"``.
    """
    if ckpt.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unknown checkpoint format {ckpt.get('format')!r}"
        )
    if ckpt.get("kind") != kind:
        raise CheckpointError(
            f"checkpoint is for kind {ckpt.get('kind')!r}, not {kind!r}"
        )
    if ckpt.get("graph") != graph or ckpt.get("mode") != mode:
        raise CheckpointError(
            f"checkpoint is for {ckpt.get('graph')}/{ckpt.get('mode')}, "
            f"this search runs {graph}/{mode}"
        )
    if int(ckpt.get("episodes", -1)) != int(episodes):
        raise CheckpointError(
            f"checkpoint budget is {ckpt.get('episodes')} episodes, "
            f"this search runs {episodes}"
        )
    snap_seeds = [int(s["seed"]) for s in ckpt.get("seeds", [])]
    if snap_seeds != [int(s) for s in seeds]:
        raise CheckpointError(
            f"checkpoint covers seeds {snap_seeds}, this search runs "
            f"{list(seeds)}"
        )
    ckpt_warm = ckpt.get("warm_start", "off")
    if ckpt_warm != warm_start:
        raise CheckpointError(
            f"checkpoint was seeded with warm_start={ckpt_warm!r}, "
            f"this search runs warm_start={warm_start!r}"
        )
    completed = int(ckpt.get("episode", -1))
    if not 0 < completed < int(episodes):
        raise CheckpointError(
            f"checkpoint episode index {completed} is outside (0, {episodes})"
        )
