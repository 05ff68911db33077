"""Command-line interface: the QS-DNN flow without writing Python.

    python -m repro networks
    python -m repro summary  --network mobilenet_v1
    python -m repro profile  --network lenet5 --mode gpgpu --out lut.json
    python -m repro search   --lut lut.json --episodes 1000 --out sched.json
    python -m repro search   --lut lut.json --seeds 8      # lockstep sweep
    python -m repro cem      --network lenet5 --mode gpgpu
    python -m repro ga       --network lenet5 --mode gpgpu
    python -m repro compare  --network lenet5 --mode gpgpu
    python -m repro table2   --mode cpu --networks lenet5 alexnet
    python -m repro campaign --networks lenet5 alexnet --modes cpu gpgpu \
        --seeds 0 1 2 --jobs 4 --cache-dir .repro-cache
    python -m repro serve    --port 8421 --workers 2 --store results.sqlite
    python -m repro submit   --network lenet5 --mode gpgpu --wait --watch
    python -m repro campaign --networks lenet5 --cache-dir .repro-cache \
        --cache-remote http://fleet-cache:8421     # fetch LUTs from the fleet
    python -m repro lut-cache stats --cache-dir .repro-cache
    python -m repro lut-cache push  --cache-dir .repro-cache \
        --url http://fleet-cache:8421
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.compare import compare_methods
from repro.analysis.speedup import auto_episodes, render_table2, run_table2
from repro.backends.registry import Mode
from repro.core.config import SearchConfig
from repro.core.priors import WARM_START_CHOICES
from repro.core.search import QSDNNSearch
from repro.engine.lut import LatencyTable
from repro.engine.optimizer import InferenceEngineOptimizer
from repro.nn.summary import summarize
from repro.runtime.campaign import JOB_KINDS
from repro.runtime.campaign import PLATFORM_FACTORIES as PLATFORMS
from repro.utils.fsio import atomic_write_text
from repro.utils.units import format_ms
from repro.zoo import TABLE2_NETWORKS, available_networks, build_network


def _mode(text: str) -> Mode:
    return Mode(text.lower())


def _positive_int(text: str) -> int:
    """Argparse type for counts that must be >= 1.

    ``--episodes 0`` used to slip through ``args.episodes or auto``
    as falsy and silently run the auto budget; rejecting it at parse
    time makes the mistake loud.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_platform_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--platform", choices=sorted(PLATFORMS), default="jetson_tx2",
        help="target platform model",
    )
    parser.add_argument(
        "--mode", type=_mode, choices=list(Mode), default=Mode.CPU,
        help="design-space mode (cpu or gpgpu)",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")


def cmd_networks(_args: argparse.Namespace) -> int:
    from repro.utils.tables import AsciiTable
    from repro.utils.units import gflops, mbytes

    table = AsciiTable(["network", "layers", "GFLOPs", "params (MiB)"])
    for name in available_networks():
        net = build_network(name)
        table.add_row(
            [
                name,
                len(net.layers()),
                f"{gflops(net.total_flops()):.3f}",
                f"{mbytes(net.total_weight_bytes()):.2f}",
            ]
        )
    print(table.render())
    return 0


def cmd_summary(args: argparse.Namespace) -> int:
    print(summarize(build_network(args.network)))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    platform = PLATFORMS[args.platform]()
    graph = build_network(args.network)
    optimizer = InferenceEngineOptimizer(
        graph, platform, mode=args.mode, seed=args.seed, repeats=args.repeats
    )
    lut = optimizer.profile()
    report = optimizer.profiling_report
    atomic_write_text(args.out, lut.to_json())
    print(
        f"profiled {args.network} on {platform.name} ({args.mode}): "
        f"{report.network_inferences} network passes + "
        f"{report.compatibility_passes} compatibility pass -> {args.out}"
    )
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    from repro.engine.validate import validate_lut

    lut = LatencyTable.from_json(Path(args.lut).read_text())
    validate_lut(lut)
    # Same per-network auto budget as campaign/table2 jobs.
    episodes = (
        auto_episodes(len(lut.layers)) if args.episodes is None else args.episodes
    )
    config = SearchConfig(
        episodes=episodes,
        seed=args.seed,
        polish_sweeps=0 if args.no_polish else 2,
        kernel=args.kernel,
        warm_start=args.warm_start,
    )
    prior = None
    if args.warm_start != "off" and args.warm_store:
        from repro.core.priors import make_prior
        from repro.runtime.lutcache import open_cache
        from repro.runtime.store import ResultStore

        cache = open_cache(args.warm_cache_dir)
        prior = make_prior(
            args.warm_start,
            ResultStore(args.warm_store),
            cache.peek if cache is not None else None,
        )
    anytime: dict = {}
    if args.checkpoint_every:
        if not args.checkpoint_file:
            print("--checkpoint-every requires --checkpoint-file",
                  file=sys.stderr)
            return 2
        from repro.core.checkpoint import encode_checkpoint

        def on_checkpoint(ckpt: dict, _path=args.checkpoint_file) -> bool:
            atomic_write_text(_path, encode_checkpoint(ckpt))
            return True

        anytime["checkpoint_every"] = args.checkpoint_every
        anytime["on_checkpoint"] = on_checkpoint
    if args.resume_from:
        from repro.core.checkpoint import decode_checkpoint

        anytime["resume"] = decode_checkpoint(
            Path(args.resume_from).read_text()
        )
    if args.seeds > 1:
        from repro.core import MultiSeedSearch, seed_range

        from repro.utils.proc import peak_rss_mb

        sweep = MultiSeedSearch(
            lut, config, seeds=seed_range(args.seed, args.seeds), prior=prior
        ).run(**anytime)
        for member in sweep.results:
            print(member.summary())
        print(f"{sweep.summary()}, peak RSS {peak_rss_mb():.0f} MB")
        result = sweep.best
    else:
        result = QSDNNSearch(lut, config, prior=prior).run(**anytime)
        print(result.summary())
    if args.out:
        payload = {
            "graph": result.graph_name,
            "method": result.method,
            "total_ms": result.best_ms,
            "assignments": result.best_assignments,
        }
        atomic_write_text(args.out, json.dumps(payload, indent=2))
        print(f"schedule -> {args.out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    platform = PLATFORMS[args.platform]()
    graph = build_network(args.network)
    optimizer = InferenceEngineOptimizer(
        graph, platform, mode=args.mode, seed=args.seed
    )
    lut = optimizer.profile()
    episodes = (
        auto_episodes(len(lut.layers)) if args.episodes is None else args.episodes
    )
    print(
        compare_methods(
            lut, episodes=episodes, seed=args.seed, approx=args.approx
        ).render()
    )
    return 0


def _run_population_baseline(args: argparse.Namespace, runner) -> int:
    """Profile a network and run one population-based baseline on it."""
    platform = PLATFORMS[args.platform]()
    graph = build_network(args.network)
    lut = InferenceEngineOptimizer(
        graph, platform, mode=args.mode, seed=args.seed
    ).profile()
    # Same auto budget as campaign cem/ga jobs (apples-to-apples).
    episodes = (
        auto_episodes(len(lut.layers)) if args.episodes is None else args.episodes
    )
    result = runner(
        lut, episodes=episodes, seed=args.seed, population=args.population
    )
    print(result.summary())
    if args.out:
        payload = {
            "graph": result.graph_name,
            "method": result.method,
            "total_ms": result.best_ms,
            "assignments": result.best_assignments,
        }
        atomic_write_text(args.out, json.dumps(payload, indent=2))
        print(f"schedule -> {args.out}")
    return 0


def _run_approx_q(args: argparse.Namespace, search_cls, config_cls) -> int:
    """Profile a network and run one value-function-approximation agent."""
    platform = PLATFORMS[args.platform]()
    graph = build_network(args.network)
    lut = InferenceEngineOptimizer(
        graph, platform, mode=args.mode, seed=args.seed
    ).profile()
    episodes = (
        auto_episodes(len(lut.layers)) if args.episodes is None else args.episodes
    )
    result = search_cls(
        lut, config_cls(episodes=episodes, seed=args.seed)
    ).run()
    print(result.summary())
    if args.out:
        payload = {
            "graph": result.graph_name,
            "method": result.method,
            "total_ms": result.best_ms,
            "assignments": result.best_assignments,
        }
        atomic_write_text(args.out, json.dumps(payload, indent=2))
        print(f"schedule -> {args.out}")
    return 0


def cmd_linear_q(args: argparse.Namespace) -> int:
    from repro.ext.linear_q import LinearQConfig, LinearQSearch

    return _run_approx_q(args, LinearQSearch, LinearQConfig)


def cmd_mlp_q(args: argparse.Namespace) -> int:
    from repro.ext.mlp_q import MLPQConfig, MLPQSearch

    return _run_approx_q(args, MLPQSearch, MLPQConfig)


def cmd_cem(args: argparse.Namespace) -> int:
    from repro.baselines import cross_entropy_method

    return _run_population_baseline(args, cross_entropy_method)


def cmd_ga(args: argparse.Namespace) -> int:
    from repro.baselines import genetic_search

    return _run_population_baseline(args, genetic_search)


def cmd_table2(args: argparse.Namespace) -> int:
    platform = PLATFORMS[args.platform]()
    networks = args.networks or list(TABLE2_NETWORKS)
    rows = run_table2(
        networks,
        args.mode,
        platform,
        episodes=args.episodes,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        cache_remote=args.cache_remote,
    )
    print(
        render_table2(
            rows, title=f"Table II ({args.mode} mode) on {platform.name}"
        )
    )
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    import time
    from dataclasses import asdict

    from repro.runtime.campaign import Campaign, grid

    networks = args.networks or list(TABLE2_NETWORKS)
    jobs = grid(
        networks,
        platforms=args.platforms,
        modes=[str(m) for m in args.modes],
        seeds=args.seeds,
        episodes=args.episodes,
        kind=args.kind,
        seeds_per_job=args.seeds_per_job,
        kernel=args.kernel,
        warm_start=args.warm_start,
    )
    campaign = Campaign(
        jobs,
        workers=args.jobs,
        cache_dir=args.cache_dir,
        cache_remote=args.cache_remote,
        warm_store=args.warm_store,
    )
    started = time.perf_counter()
    results = campaign.run()
    wall = time.perf_counter() - started

    if args.kind == "table2":
        # One rendered Table II block per (platform, mode) shard.
        blocks: dict[tuple[str, str, int], list] = {}
        for result in results:
            key = (result.job.platform, result.job.mode, result.job.seed)
            blocks.setdefault(key, []).append(result.payload)
        for (platform, mode, seed), rows in blocks.items():
            print(
                render_table2(
                    rows,
                    title=f"Table II ({mode} mode) on {platform} [seed {seed}]",
                )
            )
    else:
        for result in results:
            payload = result.payload
            render = getattr(payload, "render", None)
            print(render() if render is not None else payload.summary())

    from repro.core.multi_seed import MultiSeedResult
    from repro.utils.proc import peak_rss_mb

    cached = sum(1 for r in results if r.lut_from_cache)
    busy = sum(r.wall_clock_s for r in results)
    line = (
        f"campaign: {len(results)} jobs on {args.jobs} worker(s) in {wall:.1f}s "
        f"({busy:.1f}s aggregate, {cached} LUT cache hit(s)"
    )
    swept = sum(
        len(r.payload.results)
        for r in results
        if isinstance(r.payload, MultiSeedResult)
    )
    if swept and wall > 0:
        line += f", {swept / wall:.0f} seeds/s"
    print(line + f", peak RSS {peak_rss_mb():.0f} MB)")
    if args.out:
        payload = [
            {
                "job": asdict(result.job),
                "wall_clock_s": result.wall_clock_s,
                "lut_from_cache": result.lut_from_cache,
                "result": asdict(result.payload),
            }
            for result in results
        ]
        # default=str covers the few non-JSON leaves (epsilon schedules
        # inside multi-seed member configs).
        atomic_write_text(args.out, json.dumps(payload, indent=2, default=str))
        print(f"results -> {args.out}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.config import ServiceConfig
    from repro.runtime.service import run_service

    return run_service(
        ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_limit=args.queue_limit,
            store_path=args.store,
            cache_dir=args.cache_dir,
            cache_remote=args.cache_remote,
            lease_ttl_s=args.lease_ttl,
            lease_check_s=args.lease_check,
            max_lease_retries=args.max_lease_retries,
            quota_jobs=args.quota_jobs,
            rate_limit_per_s=args.rate_limit,
            rate_burst=args.rate_burst,
            drain_timeout_s=args.drain_timeout,
            lease_batch_limit=args.lease_batch_limit,
            store_wal=not args.store_no_wal,
            checkpoint_every=args.checkpoint_every,
            checkpoint_ttl_s=args.checkpoint_ttl,
        )
    )


def cmd_work(args: argparse.Namespace) -> int:
    from repro.runtime.worker import WorkerConfig, run_worker

    return run_worker(
        WorkerConfig(
            server=args.server,
            name=args.name,
            cache_dir=args.cache_dir,
            cache_remote=args.cache_remote,
            poll_s=args.poll,
            max_jobs=args.max_jobs,
            lease_batch=args.lease_batch,
        )
    )


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.runtime.client import ServiceClient

    client = ServiceClient(args.url, timeout=args.timeout)
    body = {
        "network": args.network,
        "platform": args.platform,
        "mode": str(args.mode),
        "seed": args.seed,
        "kind": args.kind,
        "kernel": args.kernel,
        "priority": args.priority,
    }
    if args.episodes is not None:
        body["episodes"] = args.episodes
    if args.kind == "multi-seed":
        body["seeds"] = args.seeds_per_job
    if args.resume:
        body["resume"] = True
    if args.warm_start != "off":
        body["warm_start"] = args.warm_start
    records = client.submit(body)
    for record in records:
        print(f"{record['id']} {record['state']} {record['key']}")
    if not (args.wait or args.watch):
        return 0
    exit_code = 0
    for record in records:
        job_id = record["id"]
        if args.watch:
            for event, data in client.stream_progress(job_id):
                if event in ("checkpoint", "progress"):
                    print(
                        f"{job_id} episode {data['episode']}: "
                        f"best {format_ms(data['best_ms'])}"
                    )
                elif event in ("done", "failed", "cancelled"):
                    print(f"{job_id} {event}: {json.dumps(data)}")
        final = client.wait(job_id, timeout=args.timeout)
        if final["state"] != "done":
            print(f"{job_id} {final['state']}: {final.get('error')}")
            exit_code = 1
            continue
        best = final.get("best_ms")
        print(
            f"{job_id} done: best_ms={best!r} "
            f"({final['wall_clock_s']:.2f}s, "
            f"from_store={final['from_store']})"
        )
        if args.out:
            atomic_write_text(args.out, json.dumps(final, indent=2))
            print(f"result -> {args.out}")
    return exit_code


def _key_selected(key, args: argparse.Namespace) -> bool:
    """Whether a shard key passes the optional CLI filters."""
    if getattr(args, "platform", None) and key.platform != args.platform:
        return False
    if getattr(args, "network", None) and key.network != args.network:
        return False
    if getattr(args, "mode", None) and key.mode != str(args.mode):
        return False
    return True


def cmd_lut_cache_stats(args: argparse.Namespace) -> int:
    from repro import __version__
    from repro.runtime.lutcache import LocalTier
    from repro.utils.tables import AsciiTable

    tier = LocalTier(args.cache_dir)
    stats = tier.stats()
    table = AsciiTable(["shard", "entries", "KiB", "versions"])
    for stat in stats:
        table.add_row(
            [
                stat.shard,
                stat.entries,
                f"{stat.bytes / 1024:.1f}",
                ",".join(sorted(stat.versions)),
            ]
        )
    print(table.render())
    entries = sum(s.entries for s in stats)
    total = sum(s.bytes for s in stats)
    stale = sum(
        1 for s in stats for v in s.versions if v != __version__
    )
    print(
        f"lut-cache: {entries} entr{'y' if entries == 1 else 'ies'} in "
        f"{len(stats)} shard(s), {total / 1024:.1f} KiB "
        f"(current version v{__version__}"
        + (f"; {stale} shard version(s) stale — run gc)" if stale else ")")
    )
    return 0


def cmd_lut_cache_gc(args: argparse.Namespace) -> int:
    from repro import __version__
    from repro.runtime.lutcache import LocalTier

    removed, reclaimed = LocalTier(args.cache_dir).gc(keep_version=__version__)
    print(
        f"lut-cache gc: removed {removed} file(s), reclaimed "
        f"{reclaimed / 1024:.1f} KiB (kept v{__version__} entries)"
    )
    return 0


def cmd_lut_cache_push(args: argparse.Namespace) -> int:
    from repro.errors import LutCacheError, ServiceError
    from repro.runtime.lutcache import LocalTier, RemoteTier

    local = LocalTier(args.cache_dir)
    remote = RemoteTier(args.url)
    pushed = 0
    try:
        for key in local.keys():
            if not _key_selected(key, args):
                continue
            remote.put(key, local.get(key))
            print(f"pushed {key.shard}/{key.filename}")
            pushed += 1
    except (LutCacheError, ServiceError) as error:
        print(f"lut-cache push failed after {pushed} entr(ies): {error}")
        return 1
    print(f"lut-cache push: {pushed} entr(ies) -> {args.url}")
    return 0


def cmd_lut_cache_prefetch(args: argparse.Namespace) -> int:
    from repro.errors import LutCacheError, ServiceError
    from repro.runtime.lutcache import LocalTier, RemoteTier, validate_entry

    local = LocalTier(args.cache_dir)
    remote = RemoteTier(args.url)
    fetched = present = 0
    try:
        for key in remote.keys():
            if not _key_selected(key, args):
                continue
            if local.path_for(key).exists():
                present += 1
                continue
            text = remote.get(key)
            if text is None:  # raced a remote gc; not an error
                continue
            validate_entry(text, key)
            local.put(key, text)
            print(f"fetched {key.shard}/{key.filename}")
            fetched += 1
    except (LutCacheError, ServiceError) as error:
        print(f"lut-cache prefetch failed after {fetched} entr(ies): {error}")
        return 1
    print(
        f"lut-cache prefetch: {fetched} fetched, {present} already local "
        f"<- {args.url}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import full_report

    platform = PLATFORMS[args.platform]()
    networks = args.networks or list(TABLE2_NETWORKS)
    cpu_rows = run_table2(
        networks, Mode.CPU, platform, episodes=args.episodes, seed=args.seed
    )
    gpgpu_rows = run_table2(
        networks, Mode.GPGPU, platform, episodes=args.episodes, seed=args.seed
    )
    report = full_report(cpu_rows, gpgpu_rows, platform.name, args.seed)
    atomic_write_text(args.out, report)
    print(f"report -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="QS-DNN: RL-based DNN primitive selection (DATE'19 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("networks", help="list zoo networks").set_defaults(
        func=cmd_networks
    )

    p = sub.add_parser("summary", help="per-layer summary of one network")
    p.add_argument("--network", required=True, choices=available_networks())
    p.set_defaults(func=cmd_summary)

    p = sub.add_parser("profile", help="run the inference phase, save the LUT")
    p.add_argument("--network", required=True, choices=available_networks())
    _add_platform_args(p)
    p.add_argument("--repeats", type=_positive_int, default=50,
                   help="measurements per primitive (paper: 50)")
    p.add_argument("--out", default="lut.json", help="output LUT path")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("search", help="run QS-DNN over a saved LUT")
    p.add_argument("--lut", required=True, help="LUT JSON from 'profile'")
    p.add_argument("--episodes", type=_positive_int, default=None,
                   help="episode budget (default: max(1000, 25 x layers))")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-polish", action="store_true",
                   help="raw Algorithm 1 output, no local refinement")
    p.add_argument("--seeds", type=_positive_int, default=1,
                   help="run K consecutive seeds in one lockstep sweep "
                        "(results identical to K runs); without "
                        "--checkpoint-every/--resume-from the seeds are "
                        "split across one process per usable CPU")
    p.add_argument("--kernel",
                   choices=["auto", "numba", "reference", "mega"],
                   default="auto",
                   help="episode-kernel backend (auto: numba when "
                        "installed, and the mega batch path once --seeds "
                        "is large; results are bit-identical either way)")
    p.add_argument("--checkpoint-every", type=_positive_int, default=None,
                   help="write an anytime checkpoint every N episodes "
                        "(requires --checkpoint-file)")
    p.add_argument("--checkpoint-file", default=None,
                   help="checkpoint path, atomically rewritten at every "
                        "boundary; feed it back via --resume-from")
    p.add_argument("--resume-from", default=None,
                   help="resume from a saved checkpoint file — the "
                        "completed run is bitwise-identical to an "
                        "uninterrupted one")
    p.add_argument("--warm-start", choices=list(WARM_START_CHOICES),
                   default="off",
                   help="seed the Q table from the result corpus: 'stored' "
                        "replays this scenario's best stored schedule, "
                        "'surrogate' fits a cross-network cost surrogate "
                        "(off: bitwise-identical to a cold run)")
    p.add_argument("--warm-store", default=None,
                   help="result-store sqlite path the prior is mined from "
                        "(warm starts are skipped without it)")
    p.add_argument("--warm-cache-dir", default=None,
                   help="LUT cache tier harvested for surrogate training "
                        "pairs (--warm-start surrogate only)")
    p.add_argument("--out", default=None, help="save the schedule as JSON")
    p.set_defaults(func=cmd_search)

    for name, func, blurb in (
        ("linear-q", cmd_linear_q,
         "linear Q approximation baseline over one network's LUT"),
        ("mlp-q", cmd_mlp_q,
         "MLP Q approximation baseline over one network's LUT"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--network", required=True, choices=available_networks())
        _add_platform_args(p)
        p.add_argument("--episodes", type=_positive_int, default=None,
                       help="episode budget (default: max(1000, 25 x layers))")
        p.add_argument("--out", default=None, help="save the schedule as JSON")
        p.set_defaults(func=func)

    for name, func, blurb in (
        ("cem", cmd_cem, "cross-entropy method over one network's LUT"),
        ("ga", cmd_ga, "genetic algorithm over one network's LUT"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--network", required=True, choices=available_networks())
        _add_platform_args(p)
        p.add_argument("--episodes", type=_positive_int, default=None,
                       help="evaluation budget (default: max(1000, 25 x layers))")
        p.add_argument("--population", type=_positive_int, default=64,
                       help="schedules priced per generation")
        p.add_argument("--out", default=None, help="save the schedule as JSON")
        p.set_defaults(func=func)

    p = sub.add_parser("compare", help="all search methods on one network")
    p.add_argument("--network", required=True, choices=available_networks())
    _add_platform_args(p)
    p.add_argument("--episodes", type=_positive_int, default=None)
    p.add_argument("--approx", action="store_true",
                   help="also price the approximate-Q baselines "
                        "(linear-q, mlp-q) on the same LUT")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("table2", help="regenerate Table II rows")
    p.add_argument("--networks", nargs="*", default=None,
                   choices=available_networks())
    _add_platform_args(p)
    p.add_argument("--episodes", type=_positive_int, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (one network cell per job)")
    p.add_argument("--cache-dir", default=None,
                   help="local LUT cache tier directory")
    p.add_argument("--cache-remote", default=None,
                   help="remote LUT shard server URL (a `repro serve` "
                        "instance with --cache-dir)")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser(
        "campaign",
        help="run a (network x platform x mode x seed) search campaign",
    )
    p.add_argument("--networks", nargs="*", default=None,
                   choices=available_networks(),
                   help="networks (default: the Table II set)")
    p.add_argument("--platforms", nargs="*", default=["jetson_tx2"],
                   choices=sorted(PLATFORMS))
    p.add_argument("--modes", nargs="*", type=_mode, default=[Mode.CPU],
                   help="design-space modes (cpu and/or gpgpu)")
    p.add_argument("--seeds", nargs="*", type=int, default=[0])
    p.add_argument("--episodes", type=_positive_int, default=None,
                   help="episode budget (default: per-network auto)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes to shard jobs across")
    p.add_argument("--cache-dir", default=None,
                   help="local LUT cache tier directory")
    p.add_argument("--cache-remote", default=None,
                   help="remote LUT shard server URL (a `repro serve` "
                        "instance with --cache-dir)")
    p.add_argument("--kind", choices=list(JOB_KINDS), default="table2",
                   help="payload per job: Table II row, full comparison, "
                        "a population baseline, or a multi-seed sweep")
    p.add_argument("--seeds-per-job", type=_positive_int, default=8,
                   help="K of each multi-seed job (kind=multi-seed only; "
                        "large K auto-routes through the mega batch "
                        "kernel when numba is installed)")
    p.add_argument("--kernel",
                   choices=["auto", "numba", "reference", "mega"],
                   default="auto",
                   help="episode-kernel backend of every job's searches")
    p.add_argument("--warm-start", choices=list(WARM_START_CHOICES),
                   default="off",
                   help="Q-prior warm starts for search/multi-seed jobs, "
                        "mined from --warm-store (off: cold, bitwise "
                        "pre-PR behaviour)")
    p.add_argument("--warm-store", default=None,
                   help="result-store sqlite path priors are mined from")
    p.add_argument("--out", default=None, help="save all results as JSON")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "serve",
        help="run the async campaign service (job queue + result store)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8421,
                   help="TCP port (0: let the OS pick; printed at startup)")
    p.add_argument("--workers", type=int, default=2,
                   help="local worker processes, forked at start; each "
                        "leases jobs from this service over loopback")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="queued-job cap before POST /jobs answers 429")
    p.add_argument("--store", default=None,
                   help="sqlite result-store path (default: in-memory)")
    p.add_argument("--cache-dir", default=None,
                   help="local LUT cache tier shared by workers — also "
                        "the shard tree served over GET/PUT /luts")
    p.add_argument("--cache-remote", default=None,
                   help="upstream LUT shard server chained behind the "
                        "local tier")
    p.add_argument("--lease-ttl", type=float, default=30.0,
                   help="seconds a worker's lease survives without a "
                        "heartbeat before its job is requeued; workers "
                        "beat (and carry checkpoints) every third of it")
    p.add_argument("--lease-check", type=float, default=1.0,
                   help="seconds between lease-reaper sweeps")
    p.add_argument("--max-lease-retries", type=_positive_int, default=3,
                   help="lease grants per job before a further expiry "
                        "marks it failed")
    p.add_argument("--quota-jobs", type=int, default=0,
                   help="per-tenant cap on active jobs (0: unlimited)")
    p.add_argument("--rate-limit", type=float, default=0.0,
                   help="per-tenant POST /jobs requests per second "
                        "(0: unlimited)")
    p.add_argument("--rate-burst", type=_positive_int, default=10,
                   help="token-bucket burst size of the rate limit")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="seconds shutdown waits for outstanding leases "
                        "(local and fleet workers) before releasing them")
    p.add_argument("--lease-batch-limit", type=_positive_int, default=64,
                   help="max jobs one POST /leases may claim (clamps "
                        "the worker's max_jobs request)")
    p.add_argument("--store-no-wal", action="store_true",
                   help="disable WAL mode on the file-backed result "
                        "store (full per-write fsync durability)")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="snapshot running search jobs every N episodes "
                        "(anytime search: live progress, DELETE "
                        "preemption, crash recovery, submit --resume; "
                        "0 disables)")
    p.add_argument("--checkpoint-ttl", type=float, default=3600.0,
                   help="seconds a stale persisted checkpoint survives "
                        "before the reaper garbage-collects it")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "work",
        help="run a fleet worker against a campaign service",
    )
    p.add_argument("--server", required=True,
                   help="campaign-service URL (repro serve prints it)")
    p.add_argument("--name", default=None,
                   help="worker name shown in GET /workers and metrics")
    p.add_argument("--cache-dir", default=None,
                   help="local LUT cache tier for executed jobs")
    p.add_argument("--cache-remote", default=None,
                   help="remote LUT shard server chained behind the "
                        "local tier")
    p.add_argument("--poll", type=float, default=0.5,
                   help="long-poll window: seconds the service may hold "
                        "an empty lease request before answering")
    p.add_argument("--max-jobs", type=int, default=0,
                   help="exit after this many executed jobs (0: run "
                        "until the service goes away)")
    p.add_argument("--lease-batch", type=_positive_int, default=1,
                   help="jobs to claim per lease (batched leasing; "
                        "results are delivered in one request)")
    p.set_defaults(func=cmd_work)

    p = sub.add_parser(
        "submit", help="submit a search scenario to a running service"
    )
    p.add_argument("--url", default="http://127.0.0.1:8421",
                   help="service address (repro serve prints it)")
    p.add_argument("--network", required=True, choices=available_networks())
    _add_platform_args(p)
    p.add_argument("--episodes", type=_positive_int, default=None,
                   help="episode budget (default: per-network auto)")
    p.add_argument("--kind", choices=list(JOB_KINDS), default="search",
                   help="job payload (default: a plain QS-DNN search)")
    p.add_argument("--kernel",
                   choices=["auto", "numba", "reference", "mega"],
                   default="auto", help="episode-kernel backend")
    p.add_argument("--seeds-per-job", type=_positive_int, default=8,
                   help="K of a multi-seed job (kind=multi-seed only)")
    p.add_argument("--priority", type=int, default=10,
                   help="queue priority (lower runs first)")
    p.add_argument("--resume", action="store_true",
                   help="resume from the job's persisted checkpoint if "
                        "one exists (from a preempted or crashed prior "
                        "run); completes bitwise-identical to an "
                        "uninterrupted run")
    p.add_argument("--warm-start", choices=list(WARM_START_CHOICES),
                   default="off",
                   help="ask the service to seed the job's Q table from "
                        "its result corpus (off: cold start)")
    p.add_argument("--wait", action="store_true",
                   help="poll until the job finishes, print the result")
    p.add_argument("--watch", action="store_true",
                   help="stream progress checkpoints while waiting")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="seconds to wait for completion")
    p.add_argument("--out", default=None,
                   help="save the final job record as JSON")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "lut-cache",
        help="inspect and sync the tiered LUT shard cache",
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)

    s = cache_sub.add_parser(
        "stats", help="per-shard entry counts, bytes and versions"
    )
    s.add_argument("--cache-dir", required=True,
                   help="local LUT cache tier directory")
    s.set_defaults(func=cmd_lut_cache_stats)

    s = cache_sub.add_parser(
        "gc", help="drop other-version entries and orphaned temp files"
    )
    s.add_argument("--cache-dir", required=True,
                   help="local LUT cache tier directory")
    s.set_defaults(func=cmd_lut_cache_gc)

    for name, func, blurb in (
        ("push", cmd_lut_cache_push,
         "upload local shard entries to a remote shard server"),
        ("prefetch", cmd_lut_cache_prefetch,
         "download a remote server's shard entries into the local tier"),
    ):
        s = cache_sub.add_parser(name, help=blurb)
        s.add_argument("--cache-dir", required=True,
                       help="local LUT cache tier directory")
        s.add_argument("--url", required=True,
                       help="shard server address (repro serve prints it)")
        s.add_argument("--platform", default=None,
                       help="only this platform's shards")
        s.add_argument("--network", default=None,
                       help="only this network's shards")
        s.add_argument("--mode", default=None,
                       help="only entries of this design-space mode")
        s.set_defaults(func=func)

    p = sub.add_parser(
        "report", help="full markdown reproduction report (both modes)"
    )
    p.add_argument("--networks", nargs="*", default=None,
                   choices=available_networks())
    _add_platform_args(p)
    p.add_argument("--episodes", type=_positive_int, default=None)
    p.add_argument("--out", default="report.md")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
