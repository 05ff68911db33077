"""Batched search campaigns: many (network x platform x mode x seed)
jobs, sharded across worker processes.

The paper runs one search at a time; serving "as many scenarios as you
can imagine" means running whole grids of them — every Table II cell,
multi-seed robustness sweeps, per-platform comparisons.  A
:class:`Campaign` takes a list of :class:`CampaignJob` descriptions and

* shards them across a :class:`concurrent.futures.ProcessPoolExecutor`
  (``workers=1`` runs inline, no process overhead),
* resolves profiled LUTs through the tiered shard cache
  (:mod:`repro.runtime.lutcache`: local ``platform/network`` shard
  directories, then remote shard servers), so re-running a campaign —
  or sharing a cache directory or a fleet shard server between
  campaigns — skips the expensive profiling phase entirely,
* returns results in job order, each carrying its payload (a Table II
  row or a full method comparison) plus cache/wall-clock accounting.

Jobs carry platform *names* (resolved via :data:`PLATFORM_FACTORIES`
in the worker), so a campaign pickles cheaply and runs identically in
every process.
"""

from __future__ import annotations

import atexit
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.backends.registry import Mode
from repro.engine.lut import LatencyTable
from repro.engine.optimizer import InferenceEngineOptimizer
from repro.engine.pricing import SharedCostTables
from repro.errors import ConfigError, ScheduleError
from repro.hw import jetson_tx2, jetson_tx2_maxn, raspberry_pi3
from repro.runtime.lutcache import LutKey, open_cache
from repro.zoo import available_networks, build_network

#: Platform factories by name — the unit a job ships across processes.
PLATFORM_FACTORIES = {
    "jetson_tx2": jetson_tx2,
    "jetson_tx2_maxn": jetson_tx2_maxn,
    "raspberry_pi3": raspberry_pi3,
}

#: Payload kinds a campaign job can compute.
JOB_KINDS = (
    "table2",
    "compare",
    "cem",
    "ga",
    "multi-seed",
    "search",
    "linear-q",
    "mlp-q",
)

#: Kinds whose searches can be seeded from a Q prior (warm start).
WARMABLE_KINDS = ("search", "multi-seed")


def require_canonical_platform(platform) -> str:
    """The platform's registry name, or ConfigError if it is not a
    stock preset.

    Campaign jobs rebuild platforms *by name* in worker processes;
    accepting a customized platform here (e.g. a different noise
    sigma, or a derived preset like ``cpu_only``) would silently
    discard the customization and price against a different board.
    """
    factory = PLATFORM_FACTORIES.get(platform.name)
    if factory is None or factory() != platform:
        raise ConfigError(
            f"platform {platform.name!r} is not a stock preset; campaign "
            "jobs rebuild platforms by name, which would discard this "
            "platform's customizations — run serially without a cache "
            "directory, or add a factory to PLATFORM_FACTORIES"
        )
    return platform.name


@dataclass(frozen=True)
class CampaignJob:
    """One search scenario: a (network, platform, mode, seed) cell.

    ``kind`` selects the payload: ``"table2"`` produces a
    :class:`~repro.analysis.speedup.Table2Row`; ``"compare"`` a
    :class:`~repro.analysis.compare.MethodComparison` (every method at
    the same budget); ``"cem"`` / ``"ga"`` a single population-based
    :class:`~repro.core.result.SearchResult`; ``"multi-seed"`` a
    :class:`~repro.core.multi_seed.MultiSeedResult` over ``seeds``
    consecutive seeds starting at ``seed``; ``"search"`` a single
    QS-DNN :class:`~repro.core.result.SearchResult` — the same search
    (and bitwise the same ``best_ms``) that ``repro search`` runs over
    a saved LUT.  ``episodes=None`` uses the per-network auto budget.
    """

    network: str
    platform: str = "jetson_tx2"
    mode: str = "cpu"
    seed: int = 0
    episodes: int | None = None
    kind: str = "table2"
    repeats: int = 50
    #: Seed count for ``kind="multi-seed"`` (ignored by other kinds).
    seeds: int = 8
    #: Episode-kernel backend of the job's QS-DNN searches ("auto",
    #: "numba", "reference" or "mega"; see :mod:`repro.core.kernels`).
    kernel: str = "auto"
    #: Q-prior seeding the job's search (``off``/``stored``/
    #: ``surrogate``; see :mod:`repro.core.priors`).  Only the
    #: checkpointable search kinds accept a warm start.
    warm_start: str = "off"

    def __post_init__(self) -> None:
        if self.network not in available_networks():
            raise ConfigError(f"unknown network {self.network!r}")
        if self.platform not in PLATFORM_FACTORIES:
            raise ConfigError(
                f"unknown platform {self.platform!r}; "
                f"have {sorted(PLATFORM_FACTORIES)}"
            )
        Mode(self.mode)  # validates
        if self.kind not in JOB_KINDS:
            raise ConfigError(f"unknown job kind {self.kind!r}; have {JOB_KINDS}")
        # Jobs arrive from untrusted JSON (the service's POST /jobs):
        # integer fields must be *checked* integers, not duck-typed —
        # a string seed would otherwise be admitted and only blow up
        # later inside a worker process.
        for name in ("seed", "repeats", "seeds"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.episodes is not None and (
            not isinstance(self.episodes, int) or isinstance(self.episodes, bool)
        ):
            raise ConfigError(
                f"episodes must be an integer or null, got {self.episodes!r}"
            )
        if self.episodes is not None and self.episodes < 1:
            raise ConfigError(f"episodes must be >= 1, got {self.episodes}")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        if self.seeds < 1:
            raise ConfigError(f"seeds must be >= 1, got {self.seeds}")
        if self.kernel not in ("auto", "numba", "reference", "mega"):
            raise ConfigError(
                "kernel must be auto, numba, reference or mega, "
                f"got {self.kernel!r}"
            )
        from repro.core.priors import validate_warm_start

        validate_warm_start(self.warm_start)
        if self.warm_start != "off" and self.kind not in WARMABLE_KINDS:
            raise ConfigError(
                f"warm_start={self.warm_start!r} applies to kinds "
                f"{WARMABLE_KINDS}, not {self.kind!r}"
            )

    @property
    def label(self) -> str:
        """Compact human-readable job identity."""
        return f"{self.network}/{self.platform}/{self.mode}/seed{self.seed}"


@dataclass
class CampaignResult:
    """Outcome of one campaign job."""

    job: CampaignJob
    #: Table2Row (table2), MethodComparison (compare), SearchResult
    #: (cem/ga) or MultiSeedResult (multi-seed).
    payload: object
    wall_clock_s: float = 0.0
    lut_from_cache: bool = False


def lut_cache_path(cache_dir: Path, job: CampaignJob) -> Path:
    """Where a job's profiled LUT lives in the sharded local tier.

    ``cache_dir/platform/network/mode__seedS__rR__vVERSION.json`` — the
    package version is part of the key so a cache directory shared
    across repo revisions never silently serves LUTs profiled under an
    older cost model (see :mod:`repro.runtime.lutcache`).
    """
    key = LutKey.from_job(job)
    return Path(cache_dir) / key.platform / key.network / key.filename


def profile_lut(job: CampaignJob) -> LatencyTable:
    """Run the inference phase for one job (the cache chain's last rung)."""
    platform = PLATFORM_FACTORIES[job.platform]()
    graph = build_network(job.network)
    optimizer = InferenceEngineOptimizer(
        graph, platform, mode=Mode(job.mode), seed=job.seed, repeats=job.repeats
    )
    return optimizer.profile()


#: Per-process memo of cache-resolved LUTs.  A worker that runs many
#: jobs against the same (platform, network, mode, seed, repeats) key
#: used to re-read and re-parse the cache entry — and rebuild the
#: IndexedLUT / CostEngine tensors — once per job.  Holding the
#: resolved ``LatencyTable`` keeps its ``indexed()`` / ``engine()``
#: caches warm across jobs in one process.  The key includes the cache
#: *identity* (directory and remotes), so distinct cache trees never
#: serve each other's entries, and the memo only engages when a cache
#: is configured at all: no cache means the caller asked for a fresh
#: profile every call, and that contract stands.
_LUT_MEMO: dict = {}
_LUT_MEMO_CAP = 32


def _lut_memo_key(job: CampaignJob, cache_dir, cache_remote):
    remotes = (
        (cache_remote,)
        if isinstance(cache_remote, str)
        else tuple(cache_remote or ())
    )
    root = str(Path(cache_dir).resolve()) if cache_dir is not None else None
    return (root, remotes, LutKey.from_job(job))


def load_or_profile_lut(
    job: CampaignJob,
    cache_dir: Path | None = None,
    cache_remote: str | list[str] | None = None,
) -> tuple[LatencyTable, bool]:
    """Resolve a job's LUT through the tiered cache, profiling on miss.

    Returns ``(lut, from_cache)``.  The chain is per-process memo →
    local shard tier → remote shard server(s) → profile, with remote
    hits published into the local tier and fresh profiles written
    through to every writable tier.  JSON round-trips preserve floats
    exactly, so a LUT from any tier prices bitwise-identically to a
    fresh profile; a memo hit *is* a cache hit (the memoized table was
    resolved through — or written through to — this same cache).
    """
    cache = open_cache(cache_dir, cache_remote)
    if cache is None:
        return profile_lut(job), False
    memo_key = _lut_memo_key(job, cache_dir, cache_remote)
    memoized = _LUT_MEMO.get(memo_key)
    if memoized is not None:
        from repro.runtime.metrics import DEFAULT_REGISTRY

        DEFAULT_REGISTRY.counter(
            "repro_lut_cache_hits_total",
            "LUT resolutions answered by a cache tier, by tier kind.",
        ).inc(tier="memo")
        return memoized, True
    resolution = cache.resolve(job, lambda: profile_lut(job))
    if len(_LUT_MEMO) >= _LUT_MEMO_CAP:
        _LUT_MEMO.pop(next(iter(_LUT_MEMO)))
    _LUT_MEMO[memo_key] = resolution.lut
    return resolution.lut, resolution.from_cache


#: Per-process map of *attached* shared-table segments by name — a
#: worker maps each segment once and reuses the attachment (and its
#: zero-copy engine) for every subsequent job.  Mappings are closed at
#: interpreter exit; the segment itself is the owner's to unlink.
_ATTACHED_TABLES: dict[str, SharedCostTables] = {}


def _close_attached_tables() -> None:
    for shared in _ATTACHED_TABLES.values():
        shared.close()
    _ATTACHED_TABLES.clear()


def _attach_shared_tables(lut: LatencyTable, name: str) -> None:
    """Point a LUT's pricing at the host's shared tensor segment.

    Best-effort by design: if the segment is gone (the owner died or
    already cleaned up) or describes a different table, the job simply
    builds its own engine — bitwise the same prices, one extra private
    copy.  Sharing is an optimization, never a correctness dependency.
    """
    view = lut.indexed()
    if view.has_engine:
        return  # memoized LUT already carries an engine (shared or not)
    try:
        shared = _ATTACHED_TABLES.get(name)
        if shared is None:
            shared = SharedCostTables.attach(name)
            if not _ATTACHED_TABLES:
                atexit.register(_close_attached_tables)
            _ATTACHED_TABLES[name] = shared
        view.adopt_engine(shared.engine())
    except (OSError, ScheduleError, ValueError):
        return


#: Batches of *owned* segments still live in this process, unlinked at
#: interpreter exit as a last resort (normal lifecycles unlink them in
#: a ``finally`` the moment their worker pool drains).  ``unlink`` is
#: idempotent, so the atexit sweep is free for well-behaved runs.
_OWNED_TABLES: list[list[SharedCostTables]] = []
_OWNER_PID = os.getpid()


@atexit.register
def _unlink_owned_tables() -> None:
    if os.getpid() != _OWNER_PID:
        # A forked worker inherited the registry; the segments belong
        # to the parent and must outlive this child.
        return
    for batch in _OWNED_TABLES:
        for shared in batch:
            shared.close()
            shared.unlink()
    _OWNED_TABLES.clear()


def release_shared_tables(exported: dict[LutKey, SharedCostTables]) -> None:
    """Unmap and unlink a batch of owned segments (idempotent)."""
    batch = list(exported.values())
    for shared in batch:
        shared.close()
        shared.unlink()
    if batch in _OWNED_TABLES:
        _OWNED_TABLES.remove(batch)


def execute_job(
    job: CampaignJob,
    cache_dir: str | Path | None = None,
    cache_remote: str | list[str] | None = None,
    shared_tables: str | None = None,
    checkpoint_every: int | None = None,
    resume_text: str | None = None,
    on_checkpoint=None,
    warm_text: str | None = None,
) -> CampaignResult:
    """Run one job to completion (profiling, search, baselines).

    Module-level so worker processes can import it by reference.
    ``shared_tables`` names a :class:`SharedCostTables` segment the
    campaign parent exported for this job's LUT key; when given, the
    job prices against the host's single shared tensor copy instead of
    building its own (bitwise-identical either way).

    The anytime arguments apply to the checkpointable kinds
    (``"search"`` and ``"multi-seed"``) and are ignored by the rest:
    ``checkpoint_every=N`` captures a checkpoint every N episodes and
    hands it to ``on_checkpoint`` (a fleet worker stages it for its
    next lease heartbeat).  ``resume_text`` is an encoded checkpoint
    to continue from; the resumed run finishes bitwise-identical to an
    uninterrupted one.

    ``warm_text`` is an encoded Q-prior spec
    (:func:`repro.core.priors.encode_prior_spec`) for jobs with
    ``warm_start != "off"`` — the transport-level form a submitter or
    service resolved from its result corpus.  A warm job with no spec
    (the corpus had nothing to offer) runs cold, by design: warm
    starts accelerate, they never gate.
    """
    from repro.analysis.compare import compare_methods
    from repro.analysis.speedup import auto_episodes, table2_row_from_lut
    from repro.baselines.cem import cross_entropy_method
    from repro.baselines.genetic import genetic_search
    from repro.core.config import SearchConfig
    from repro.core.multi_seed import MultiSeedSearch, seed_range
    from repro.core.search import QSDNNSearch
    from repro.runtime.metrics import DEFAULT_REGISTRY

    DEFAULT_REGISTRY.counter(
        "repro_campaign_jobs_total",
        "Jobs executed in this process, by kind.",
    ).inc(kind=job.kind)
    anytime: dict = {}
    if job.kind in ("search", "multi-seed") and (
        checkpoint_every or resume_text is not None or on_checkpoint is not None
    ):
        from repro.core.checkpoint import decode_checkpoint

        anytime = {
            "checkpoint_every": checkpoint_every,
            "on_checkpoint": on_checkpoint,
            "resume": (
                decode_checkpoint(resume_text)
                if resume_text is not None
                else None
            ),
        }
    prior = None
    if job.warm_start != "off" and warm_text is not None:
        from repro.core.priors import decode_prior_spec

        prior = decode_prior_spec(warm_text)
        DEFAULT_REGISTRY.counter(
            "repro_warm_starts_total",
            "Warm-started search jobs executed, by prior kind.",
        ).inc(kind=prior.kind)
    started = time.perf_counter()
    lut, from_cache = load_or_profile_lut(job, cache_dir, cache_remote)
    if shared_tables is not None:
        _attach_shared_tables(lut, shared_tables)
    if job.kind == "table2":
        payload = table2_row_from_lut(
            lut, episodes=job.episodes, seed=job.seed, kernel=job.kernel
        )
    else:
        episodes = (
            auto_episodes(len(lut.layers))
            if job.episodes is None
            else job.episodes
        )
        if job.kind == "compare":
            payload = compare_methods(
                lut, episodes=episodes, seed=job.seed, kernel=job.kernel
            )
        elif job.kind == "cem":
            payload = cross_entropy_method(lut, episodes=episodes, seed=job.seed)
        elif job.kind == "ga":
            payload = genetic_search(lut, episodes=episodes, seed=job.seed)
        elif job.kind == "linear-q":
            from repro.ext.linear_q import LinearQConfig, LinearQSearch

            payload = LinearQSearch(
                lut, LinearQConfig(episodes=episodes, seed=job.seed)
            ).run()
        elif job.kind == "mlp-q":
            from repro.ext.mlp_q import MLPQConfig, MLPQSearch

            payload = MLPQSearch(
                lut, MLPQConfig(episodes=episodes, seed=job.seed)
            ).run()
        elif job.kind == "search":
            # Deliberately identical to `repro search` over this LUT:
            # same config defaults, same auto budget -> bitwise-equal
            # best_ms (the service's e2e acceptance check).
            payload = QSDNNSearch(
                lut,
                SearchConfig(
                    episodes=episodes,
                    seed=job.seed,
                    kernel=job.kernel,
                    warm_start=job.warm_start,
                ),
                prior=prior,
            ).run(**anytime)
        else:  # "multi-seed" — validated at construction
            payload = MultiSeedSearch(
                lut,
                SearchConfig(
                    episodes=episodes,
                    seed=job.seed,
                    kernel=job.kernel,
                    warm_start=job.warm_start,
                ),
                seeds=seed_range(job.seed, job.seeds),
                prior=prior,
            ).run(**anytime)
    return CampaignResult(
        job=job,
        payload=payload,
        wall_clock_s=time.perf_counter() - started,
        lut_from_cache=from_cache,
    )


class Campaign:
    """A batch of search jobs sharded across worker processes.

    Parameters
    ----------
    jobs:
        The scenarios to run.  Duplicate jobs are allowed (they run
        again — use distinct seeds for robustness sweeps).
    workers:
        Process count.  ``1`` (default) runs inline in this process;
        ``N > 1`` shards over a :class:`ProcessPoolExecutor`.
    cache_dir:
        Directory for the local LUT cache tier; ``None`` disables the
        local tier.
    cache_remote:
        URL (or list of URLs) of remote shard servers (a ``repro
        serve`` instance with a ``--cache-dir``) chained behind the
        local tier; see :mod:`repro.runtime.lutcache`.
    warm_store:
        Path of a :class:`~repro.runtime.store.ResultStore` database
        to resolve warm-start Q-priors from (jobs with
        ``warm_start != "off"``).  None runs warm jobs cold.
    """

    def __init__(
        self,
        jobs: list[CampaignJob],
        workers: int = 1,
        cache_dir: str | Path | None = None,
        cache_remote: str | list[str] | None = None,
        warm_store: str | Path | None = None,
    ) -> None:
        if not jobs:
            raise ConfigError("a campaign needs at least one job")
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.jobs = list(jobs)
        self.workers = workers
        self.cache_dir = cache_dir
        self.cache_remote = cache_remote
        self.warm_store = warm_store

    def run(self) -> list[CampaignResult]:
        """Execute every job; results come back in job order.

        With ``workers > 1`` the parent first exports each
        cache-resolvable job LUT's dense pricing tensors into one
        shared-memory segment per unique LUT key
        (:meth:`export_shared_tables`), hands workers the segment
        names, and unlinks every segment when the pool drains — even
        when a worker crashes mid-job (``finally``), so a killed
        worker never leaks ``/dev/shm`` space.
        """
        warm_texts = self._warm_texts()
        if self.workers == 1:
            return [
                execute_job(
                    job,
                    self.cache_dir,
                    self.cache_remote,
                    warm_text=warm_texts[i],
                )
                for i, job in enumerate(self.jobs)
            ]
        max_workers = min(self.workers, len(self.jobs))
        exported = self.export_shared_tables()
        try:
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                futures = [
                    pool.submit(
                        execute_job,
                        job,
                        self.cache_dir,
                        self.cache_remote,
                        self._segment_name(exported, job),
                        warm_text=warm_texts[i],
                    )
                    for i, job in enumerate(self.jobs)
                ]
                return [f.result() for f in futures]
        finally:
            release_shared_tables(exported)

    def _warm_texts(self) -> list[str | None]:
        """Per-job warm prior specs, resolved once per scenario.

        The campaign parent is the only place with store access (pool
        workers receive the portable spec, exactly like fleet workers
        receive it in a lease grant).  No store, or nothing usable in
        it, runs the job cold.
        """
        texts: list[str | None] = [None] * len(self.jobs)
        if self.warm_store is None or all(
            job.warm_start == "off" for job in self.jobs
        ):
            return texts
        from repro.core.priors import resolve_prior_spec
        from repro.runtime.store import ResultStore

        cache = open_cache(self.cache_dir, self.cache_remote)
        resolver = cache.peek if cache is not None else None
        memo: dict[tuple, str | None] = {}
        with ResultStore(self.warm_store) as store:
            for i, job in enumerate(self.jobs):
                if job.warm_start == "off":
                    continue
                key = (job.warm_start, job.network, job.platform, job.mode)
                if key not in memo:
                    memo[key] = resolve_prior_spec(
                        job.warm_start,
                        job.network,
                        job.platform,
                        job.mode,
                        store,
                        resolver,
                    )
                texts[i] = memo[key]
        return texts

    def export_shared_tables(self) -> dict[LutKey, SharedCostTables]:
        """Export one shared segment per unique cache-resolvable LUT key.

        Only keys the cache can already answer are exported — a peek
        miss means a worker is about to profile that LUT anyway (and
        write it through the cache for the next campaign), so the
        parent never profiles.  The caller owns the returned segments
        and must :func:`release_shared_tables` them.
        """
        exported: dict[LutKey, SharedCostTables] = {}
        cache = open_cache(self.cache_dir, self.cache_remote)
        if cache is None:
            return exported
        for job in self.jobs:
            key = LutKey.from_job(job)
            if key in exported:
                continue
            lut = cache.peek(job)
            if lut is None:
                continue
            exported[key] = SharedCostTables.create(lut.engine())
        if exported:
            _OWNED_TABLES.append(list(exported.values()))
        return exported

    @staticmethod
    def _segment_name(
        exported: dict[LutKey, SharedCostTables], job: CampaignJob
    ) -> str | None:
        shared = exported.get(LutKey.from_job(job))
        return shared.name if shared is not None else None


def grid(
    networks: list[str],
    platforms: list[str] | None = None,
    modes: list[str] | None = None,
    seeds: list[int] | None = None,
    episodes: int | None = None,
    kind: str = "table2",
    seeds_per_job: int = 8,
    kernel: str = "auto",
    warm_start: str = "off",
) -> list[CampaignJob]:
    """The full (network x platform x mode x seed) job cross-product.

    ``seeds_per_job`` is the K of ``kind="multi-seed"`` jobs (each grid
    seed starts an independent K-seed lockstep sweep); ``kernel``
    selects the episode-kernel backend of every job's searches;
    ``warm_start`` requests Q-prior seeding for warmable kinds.
    """
    jobs = [
        CampaignJob(
            network=network,
            platform=platform,
            mode=mode,
            seed=seed,
            episodes=episodes,
            kind=kind,
            seeds=seeds_per_job,
            kernel=kernel,
            warm_start=warm_start,
        )
        for platform in (platforms or ["jetson_tx2"])
        for mode in (modes or ["cpu"])
        for seed in (seeds or [0])
        for network in networks
    ]
    return jobs
