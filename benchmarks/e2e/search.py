"""Workload ``search``: the search hot loop on its own.

LUTs and engines are built during setup, so each round measures only
searches: single-seed QS-DNN on six networks, K=8 lockstep sweeps with
replay on (the fused driver) and off (the vectorized driver), and an
anytime arm that checkpoints every 100 episodes and encodes each
checkpoint.  Profiling and the service are bypassed: a kernel or
driver change shows here at full size and should not move ``flood``.
"""

from __future__ import annotations

import random
import time

from repro import baselines
from repro.backends.registry import Mode
from repro.core import checkpoint
from repro.core.config import SearchConfig
from repro.core.multi_seed import MultiSeedSearch, seed_range
from repro.core.search import QSDNNSearch
from repro.engine.optimizer import InferenceEngineOptimizer
from repro.hw import jetson_tx2
from repro.zoo import build_network

from .harness import best_of_rounds, geomean, median, rounds_for, timed_rounds

NETWORKS = ("lenet5", "alexnet", "mobilenet_v1", "googlenet", "resnet50", "vgg19")
SWEEP_NETWORKS = ("mobilenet_v1", "resnet50")
EPISODES = 1000
SWEEP_SEEDS = 8
CHECKPOINT_EVERY = 100
#: Seconds one round takes on the reference host (sizes the run).
NOMINAL_ROUND_S = 3.5
#: Toy sizes for ``--smoke``.
SMOKE = {"networks": ("lenet5",), "sweeps": ("lenet5",), "episodes": 100, "seeds": 2}


def _best(result):
    """best_ms of a search, or every member's best_ms of a sweep."""
    return getattr(result, "best_ms_per_seed", None) or result.best_ms


def _identical(a, b) -> bool:
    return (
        a.best_ms == b.best_ms
        and a.curve_ms == b.curve_ms
        and a.best_assignments == b.best_assignments
    )


def run(ctx) -> dict:
    """Measure the workload; see ``child.run_workload`` for the result."""
    size = SMOKE if ctx.smoke else {
        "networks": NETWORKS,
        "sweeps": SWEEP_NETWORKS,
        "episodes": EPISODES,
        "seeds": SWEEP_SEEDS,
    }
    episodes, k = size["episodes"], size["seeds"]
    platform = jetson_tx2()
    luts = {}
    for network in dict.fromkeys(size["networks"] + size["sweeps"]):
        luts[network] = InferenceEngineOptimizer(
            build_network(network), platform, mode=Mode.CPU, seed=ctx.seed
        ).profile()
        luts[network].engine()
    vanilla = {
        network: next(
            r.total_ms for r in baselines.single_library_results(luts[network])
            if r.library == "vanilla"
        )
        for network in size["networks"]
    }
    setup_s = time.time() - ctx.spawn_epoch
    if ctx.setup_only:
        return {"setup_s": setup_s}

    seeds = seed_range(ctx.seed, k)
    plain = SearchConfig(episodes=episodes, seed=ctx.seed)
    no_replay = SearchConfig(episodes=episodes, seed=ctx.seed, replay_enabled=False)

    def encode(ckpt) -> bool:
        checkpoint.encode_checkpoint(ckpt)
        return True

    def timed(arm, network, units, call):
        t0 = time.perf_counter()
        result = call()
        return {"arm": arm, "network": network, "units": units,
                "wall_s": time.perf_counter() - t0, "result": result}

    def one_round(_index):
        calls = []
        for network in size["networks"]:
            calls.append(timed("single", network, episodes,
                               lambda: QSDNNSearch(luts[network], plain).run()))
        for arm, config in (("fused", plain), ("vectorized", no_replay)):
            for network in size["sweeps"]:
                calls.append(timed(arm, network, episodes * k, lambda: MultiSeedSearch(
                    luts[network], config, seeds=seeds).run()))
        for network in size["sweeps"]:
            calls.append(timed("anytime", network, episodes, lambda: QSDNNSearch(
                luts[network], plain).run(checkpoint_every=CHECKPOINT_EVERY,
                                          on_checkpoint=encode)))
        return calls

    count = 1 if ctx.smoke else rounds_for(ctx.seconds, NOMINAL_ROUND_S)
    rounds = timed_rounds(one_round, count, warmup=0 if ctx.smoke else 1)
    wall_s = time.perf_counter() - ctx.started
    calls = [call for _, made in rounds for call in made]

    def rate(arm, network=None) -> float:
        """Median over rounds of units / seconds for one arm."""
        per_round = []
        for _, made in rounds:
            chosen = [c for c in made if c["arm"] == arm
                      and (network is None or c["network"] == network)]
            per_round.append(sum(c["units"] for c in chosen) / sum(c["wall_s"] for c in chosen))
        return median(per_round)

    call_times: dict[tuple, list[float]] = {}
    units = {}
    for c in calls:
        call_times.setdefault((c["arm"], c["network"]), []).append(c["wall_s"])
        units[c["arm"], c["network"]] = c["units"]
    best = best_of_rounds(call_times)

    errors = []
    first = {(c["arm"], c["network"]): c["result"] for c in rounds[0][1]}
    for _, made in rounds[1:]:
        for c in made:
            if _best(c["result"]) != _best(first[c["arm"], c["network"]]):
                errors.append(f"{c['arm']}/{c['network']}: rounds disagree")
    pick = random.Random(f"sweep-member-{ctx.seed}")
    for arm, config in (("fused", plain), ("vectorized", no_replay)):
        for network in size["sweeps"]:
            member = pick.randrange(k)
            solo = QSDNNSearch(
                luts[network],
                SearchConfig(episodes=episodes, seed=seeds[member],
                             replay_enabled=config.replay_enabled),
            ).run()
            if not _identical(first[arm, network].results[member], solo):
                errors.append(f"{arm}/{network}: seed {seeds[member]} != solo search")
    for network in size["sweeps"]:
        if not _identical(first["anytime", network], first["single", network]):
            errors.append(f"anytime/{network}: checkpointing changed the result")

    # The sweep networks are also single-seed networks, so the anytime
    # arm's overhead is measured against the same searches unchecked.
    anytime_s, plain_s = (
        median(
            sum(c["wall_s"] for c in made if c["arm"] == arm and c["network"] in size["sweeps"])
            for _, made in rounds
        )
        for arm in ("anytime", "single")
    )
    extras = {
        "search_episodes_per_s": (rate("single"), "episodes/s"),
        "sweep_replay_seed_episodes_per_s": (rate("fused"), "seed-episodes/s"),
        "sweep_noreplay_seed_episodes_per_s": (rate("vectorized"), "seed-episodes/s"),
        "rounds": (len(rounds), "count"),
    }
    for network in size["networks"]:
        extras[f"core.search.{network}.episodes_per_s"] = (rate("single", network), "1/s")
    for arm in ("fused", "vectorized"):
        for network in size["sweeps"]:
            extras[f"core.multi_seed.{arm}.{network}.seed_episodes_per_s"] = (
                rate(arm, network), "1/s")
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies": list(best.values()),
        "throughput_per_s": sum(units[op] for op in best) / sum(best.values()),
        "speedup_x": geomean(
            vanilla[n] / first["single", n].best_ms for n in size["networks"]
        ),
        "layer": {"core.checkpoint.overhead_frac": anytime_s / plain_s - 1.0},
        "extras": extras,
        "attempted": len(calls),
        "failed": len(errors),
        "errors": errors,
    }
