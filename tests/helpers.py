"""Test helpers: synthetic latency tables with known structure.

A synthetic LUT lets the search/solver tests control the optimization
landscape exactly (and cheaply) instead of going through profiling.
:func:`stop_loop_thread` ends the live services the runtime tests run
on a background event-loop thread.
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


def _oracle_noisy(true_ms: float, noise, rng, repeats: int) -> float:
    """One mean-of-``repeats`` measurement, drawn on its own."""
    if noise.sigma == 0.0:
        return true_ms
    factors = np.exp(rng.normal(-0.5 * noise.sigma**2, noise.sigma, size=repeats))
    return true_ms * float(factors.mean())


def oracle_measure(graph, space, platform, schedule, rng, repeats: int):
    """``(layer_ms, penalty_ms)`` of one noisy run of ``schedule``.

    Prices each layer and edge with the analytic model on the spot and
    draws each measurement separately: every layer in graph order, then
    every edge with a non-zero penalty.  The reference for the
    executor's block-drawn measurements.
    """
    from repro.engine.executor import Executor

    board = Executor(graph, space, platform)
    uid = schedule.primitive_uid

    def noisy(true_ms: float) -> float:
        return _oracle_noisy(true_ms, platform.noise, rng, repeats)

    layer_ms = {
        l.name: noisy(board.true_layer_ms(l.name, uid(l.name))) for l in graph.layers()
    }
    penalty_ms = {}
    for producer, consumer in graph.edges():
        true_ms = board.true_penalty_ms(
            producer, consumer, uid(producer), uid(consumer)
        )
        if true_ms != 0.0:
            penalty_ms[(producer, consumer)] = noisy(true_ms)
    return layer_ms, penalty_ms


def oracle_profile(graph, space, platform, seed: int = 0, repeats: int = 50):
    """The §V-A inference phase done the naive way: ``(lut, report)``.

    Sorts each layer's candidates on the spot, builds every
    primitive-type schedule from a fresh ``vanilla_schedule``, measures
    with :func:`oracle_measure` and draws the compatibility pass one
    measurement at a time.  It shares nothing with the profiler's
    shared schedules, candidate lists or block draws, so tests compare
    the two bitwise.
    """
    from repro.backends.layout import conversion_ms
    from repro.engine.profiler import ProfilingReport
    from repro.engine.schedule import vanilla_schedule
    from repro.utils.rng import RngStream

    stream = RngStream(seed, "profiler", graph.name, str(space.mode))
    layers = graph.layers()
    candidates = {
        l.name: sorted(p.uid for p in space.primitives if p.supports(l, graph))
        for l in layers
    }
    times: dict[str, dict[str, float]] = {l.name: {} for l in layers}
    board_ms = 0.0
    inferences = 0
    # The all-Vanilla pass, then one pass per non-Vanilla type present.
    passes = [(None, stream.child("vanilla"))] + [
        (p, stream.child("primitive", p.uid))
        for p in space.primitives
        if p.library != "vanilla" and any(p.supports(l, graph) for l in layers)
    ]
    for prim, rng in passes:
        schedule = vanilla_schedule(graph, space)
        if prim is not None:
            for l in layers:
                if prim.supports(l, graph):
                    schedule.assign(l.name, prim.uid)
        layer_ms, penalty_ms = oracle_measure(
            graph, space, platform, schedule, rng, repeats
        )
        board_ms += (sum(layer_ms.values()) + sum(penalty_ms.values())) * repeats
        inferences += 1
        for l in layers:
            uid = schedule.primitive_uid(l.name)
            if prim is None or uid == prim.uid:
                times[l.name][uid] = layer_ms[l.name]

    rng = stream.child("compat")

    def measure(true_ms: float) -> float:
        if true_ms == 0.0:
            return true_ms
        return _oracle_noisy(true_ms, platform.noise, rng, repeats)

    conversions, transfers = {}, {}
    for edge in graph.edges():
        tensor = graph.output_shape(edge[0])
        conversions[edge] = {
            proc.kind: measure(conversion_ms(tensor, proc))
            for proc in platform.processors
        }
        if platform.has(ProcessorKind.GPU):
            transfers[edge] = measure(platform.transfer_ms(tensor.nbytes))
    board_ms += (
        sum(ms for per_proc in conversions.values() for ms in per_proc.values())
        + sum(transfers.values())
    ) * repeats

    lut = LatencyTable(
        graph_name=graph.name,
        mode=str(space.mode),
        platform_name=platform.name,
        layers=[l.name for l in layers],
        candidates=candidates,
        times_ms=times,
        edges=graph.edges(),
        conversion_ms=conversions,
        transfer_ms=transfers,
        meta={p.uid: PrimitiveMeta.from_primitive(p) for p in space.primitives},
        profiling_inferences=inferences,
    )
    report = ProfilingReport(
        graph_name=graph.name,
        mode=str(space.mode),
        primitive_types=len(space.primitives),
        network_inferences=inferences,
        compatibility_passes=1,
        simulated_board_ms=board_ms,
    )
    return lut, report


def stop_loop_thread(loop, thread) -> None:
    """Stop ``loop``, which runs forever on ``thread``; join the thread,
    then the loop's executor threads, and close the loop.

    No test may leave a thread behind: while one lives, every later
    fork fan-out in the process runs in-process
    (:func:`repro.utils.proc.can_fork`).
    """
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10)
    assert not thread.is_alive(), "event loop did not stop"
    loop.run_until_complete(loop.shutdown_default_executor())
    loop.close()
