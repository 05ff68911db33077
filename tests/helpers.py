"""Test helpers: synthetic latency tables with known structure.

A synthetic LUT lets the search/solver tests control the optimization
landscape exactly (and cheaply) instead of going through profiling.
"""

from __future__ import annotations

import numpy as np

from repro.backends.layout import Layout
from repro.engine.lut import LatencyTable, PrimitiveMeta
from repro.hw.processor import ProcessorKind


def synthetic_meta(num_actions: int) -> dict[str, PrimitiveMeta]:
    """Primitive metadata cycling over {CPU, GPU} x {NCHW, NHWC}."""
    metas = {}
    for a in range(num_actions):
        uid = f"prim{a}"
        metas[uid] = PrimitiveMeta(
            uid=uid,
            library=f"lib{a % 3}",
            algorithm="alg",
            impl=str(a),
            blas=None,
            processor=ProcessorKind.GPU if a % 2 else ProcessorKind.CPU,
            layout=Layout.NHWC if (a // 2) % 2 else Layout.NCHW,
        )
    return metas


def synthetic_chain_lut(
    num_layers: int,
    num_actions: int,
    seed: int = 0,
    transfer_scale: float = 1.0,
    conversion_scale: float = 0.5,
) -> LatencyTable:
    """A random chain-network LUT with processor/layout penalties.

    Per-layer times are uniform in [1, 10) ms; the penalty structure is
    derived from the synthetic primitive metadata exactly like a real
    LUT (transfer on processor switch, conversion on layout mismatch).
    """
    rng = np.random.default_rng(seed)
    layers = [f"layer{i}" for i in range(num_layers)]
    meta = synthetic_meta(num_actions)
    uids = list(meta)
    candidates = {l: list(uids) for l in layers}
    times = {
        l: {u: float(rng.uniform(1.0, 10.0)) for u in uids} for l in layers
    }
    edges = [(layers[i], layers[i + 1]) for i in range(num_layers - 1)]
    conversion = {
        e: {
            ProcessorKind.CPU: float(rng.uniform(0.1, 1.0)) * conversion_scale,
            ProcessorKind.GPU: float(rng.uniform(0.1, 1.0)) * conversion_scale,
        }
        for e in edges
    }
    transfer = {e: float(rng.uniform(0.5, 3.0)) * transfer_scale for e in edges}
    return LatencyTable(
        graph_name=f"synthetic{num_layers}x{num_actions}",
        mode="synthetic",
        platform_name="synthetic",
        layers=layers,
        candidates=candidates,
        times_ms=times,
        edges=edges,
        conversion_ms=conversion,
        transfer_ms=transfer,
        meta=meta,
    )


def trap_lut() -> LatencyTable:
    """The Fig. 1 trap, hand-built: greedy picks a locally fastest
    middle primitive whose penalties make the path globally worse.

    Layout: 3 layers, 2 primitives each.  ``prim0`` is CPU/NCHW,
    ``prim1`` is GPU/NHWC.  Layer 1's GPU primitive is the fastest
    single measurement anywhere (1 ms), but reaching it costs a
    transfer (1.5 ms) plus a conversion (1.0 ms) on both edges:

    * all-prim0 (the blue path):    3 + 4 + 3            = 10 ms
    * greedy p0,p1,p0 (red path):   3 + 2.5 + 1 + 2.5 + 3 = 12 ms
    * all-prim1:                    8 + 1 + 8            = 17 ms
    """
    layers = ["l0", "l1", "l2"]
    meta = {
        "prim0": PrimitiveMeta(
            uid="prim0", library="cpu_lib", algorithm="a", impl="", blas=None,
            processor=ProcessorKind.CPU, layout=Layout.NCHW,
        ),
        "prim1": PrimitiveMeta(
            uid="prim1", library="gpu_lib", algorithm="a", impl="", blas=None,
            processor=ProcessorKind.GPU, layout=Layout.NHWC,
        ),
    }
    times = {
        "l0": {"prim0": 3.0, "prim1": 8.0},
        "l1": {"prim0": 4.0, "prim1": 1.0},
        "l2": {"prim0": 3.0, "prim1": 8.0},
    }
    edges = [("l0", "l1"), ("l1", "l2")]
    conversion = {
        e: {ProcessorKind.CPU: 1.0, ProcessorKind.GPU: 1.0} for e in edges
    }
    transfer = {e: 1.5 for e in edges}
    return LatencyTable(
        graph_name="fig1_trap",
        mode="synthetic",
        platform_name="synthetic",
        layers=layers,
        candidates={l: ["prim0", "prim1"] for l in layers},
        times_ms=times,
        edges=edges,
        conversion_ms=conversion,
        transfer_ms=transfer,
        meta=meta,
    )


def scalar_final_qtable(lut: LatencyTable, config, seed: int):
    """The final Q table of one single-seed search, by an oracle.

    Drives one kernel runner by hand, drawing each episode's randomness
    from the search's named streams one episode at a time — independent
    of the shared episode loop and its block-drawn exploration, so the
    runner kinds' exported state is checked against it bitwise.
    """
    from repro.core.kernels import make_runner, resolve_backend
    from repro.core.qtable import QTable
    from repro.utils.rng import RngStream

    idx = lut.indexed()
    num_layers = len(idx)
    action_counts = np.asarray(idx.num_actions, dtype=np.int64)
    row_sizes = [
        1 if parent < 0 else int(idx.num_actions[parent])
        for parent in idx.q_parent
    ]
    qtable = QTable(
        list(idx.num_actions),
        config.learning_rate,
        config.discount,
        row_sizes=row_sizes,
        first_visit_bootstrap=config.first_visit_bootstrap,
    )
    runner = make_runner(
        idx.engine(),
        qtable,
        idx.q_parent,
        replay_enabled=config.replay_enabled,
        replay_capacity=config.replay_capacity,
        backend=resolve_backend("auto"),
    )
    stream = RngStream(seed, "qsdnn", lut.graph_name, lut.mode)
    policy_rng = stream.child("policy")
    replay_rng = stream.child("replay")
    for episode in range(config.episodes):
        epsilon = config.epsilon.epsilon_for(episode)
        if epsilon >= 1.0:
            explore = None
            explored = policy_rng.integers(0, action_counts)
        elif epsilon <= 0.0:
            explore = explored = None
        else:
            explore = policy_rng.random(num_layers) < epsilon
            explored = policy_rng.integers(0, action_counts)
        perm = runner.draw_replay_order(replay_rng)
        if config.reward_shaping:
            runner.episode(explore, explored, perm)
        else:
            costs = runner.rollout_price(explore, explored)
            rewards = np.zeros(num_layers, dtype=np.float64)
            rewards[num_layers - 1] = -float(costs.sum())
            runner.learn(rewards, perm)
    runner.finalize()
    return qtable
