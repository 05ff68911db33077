"""Tiered, sharded LUT cache: pay profiling cost once per *fleet*.

The inference phase is the expensive half of the paper's pipeline —
every (network, platform, mode) cell costs a full on-board profiling
pass — and before this module the on-disk cache was flat files on one
machine.  This subsystem makes the cache a chain of **tiers** resolved
in order:

1. **Local shard tier** — a directory sharded ``platform/network/``
   with one JSON entry per (mode, seed, repeats, version) key and a
   per-shard ``index.json``.  The index is advisory (stats, serving,
   prefetch listings); the entry files themselves are authoritative,
   so a lost index is rebuilt by scanning, never trusted over disk.
2. **Remote shard tiers** — other machines' caches served by their
   ``repro serve`` instance over plain ``http.client``
   (``GET/PUT /luts/{platform}/{network}``).  A remote hit is
   published atomically into the local tier, so each entry crosses the
   network once per machine.
3. **Profile on miss** — the classic fallback, with the fresh LUT
   written through to every writable tier so the rest of the fleet
   never profiles this key again.

Exactness contract: a LUT resolved from *any* tier prices
bitwise-identically to a fresh profile.  Entries travel as the JSON
text :meth:`~repro.engine.lut.LatencyTable.to_json` produced —
format-2 payloads whose floats round-trip exactly — and every fetched
entry is validated against its key (network/platform/mode) before it
is served or republished, so a mislabeled entry fails loudly
(:class:`~repro.errors.LutCacheError`) instead of pricing the wrong
scenario.

Remote tiers are *soft*: an unreachable or corrupt remote is recorded
on the resolution and the chain falls through (ultimately to
profiling) — a fleet cache being down must slow jobs, not fail them.
The local tier is *strict*: local disk corruption raises.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.engine.lut import LatencyTable
from repro.errors import LutCacheError, ServiceError
from repro.utils.fsio import atomic_write_text

#: Path segments a shard may use (platform/network names — letters,
#: digits, dot, underscore, dash; no separators, no traversal).
SEGMENT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: Per-shard index file name (never a valid entry name: no ``__``).
INDEX_NAME = "index.json"


def _check_segment(name: str, what: str) -> str:
    if not SEGMENT_RE.match(name) or ".." in name:
        raise LutCacheError(f"invalid {what} segment {name!r}")
    return name


@dataclass(frozen=True)
class LutKey:
    """Identity of one cached LUT: the same fields the old flat
    filename carried, split into a shard (platform/network directory)
    and an entry name (mode/seed/repeats/version).

    The package version is part of the key so a cache shared across
    repo revisions never silently serves LUTs profiled under an older
    cost model.
    """

    platform: str
    network: str
    mode: str
    seed: int
    repeats: int
    version: str

    def __post_init__(self) -> None:
        # Every name-forming field is checked — keys can be built from
        # untrusted HTTP parameters (the service's /luts endpoints),
        # and any of them reaching a filesystem path unvalidated would
        # allow traversal out of the cache root.
        _check_segment(self.platform, "platform")
        _check_segment(self.network, "network")
        _check_segment(self.mode, "mode")
        _check_segment(self.version, "version")

    @classmethod
    def from_job(cls, job, version: str | None = None) -> "LutKey":
        """The cache key of a campaign job's LUT."""
        if version is None:
            from repro import __version__ as version
        return cls(
            platform=job.platform,
            network=job.network,
            mode=str(job.mode),
            seed=job.seed,
            repeats=job.repeats,
            version=version,
        )

    @property
    def shard(self) -> str:
        """Relative shard directory, ``platform/network``."""
        return f"{self.platform}/{self.network}"

    @property
    def filename(self) -> str:
        """Entry file name inside the shard directory."""
        return f"{self.mode}__seed{self.seed}__r{self.repeats}__v{self.version}.json"

    def query(self) -> dict[str, str]:
        """The HTTP query parameters addressing this key's entry."""
        return {
            "mode": self.mode,
            "seed": str(self.seed),
            "repeats": str(self.repeats),
            "version": self.version,
        }

    def to_dict(self) -> dict:
        """JSON-ready view (the ``GET /luts`` listing row)."""
        return {
            "platform": self.platform,
            "network": self.network,
            "mode": self.mode,
            "seed": self.seed,
            "repeats": self.repeats,
            "version": self.version,
        }

    @classmethod
    def from_entry_name(cls, platform: str, network: str, name: str) -> "LutKey | None":
        """Parse an entry file name back into a key (None: not an entry)."""
        if not name.endswith(".json") or name == INDEX_NAME:
            return None
        parts = name[: -len(".json")].split("__")
        if len(parts) != 4:
            return None
        mode, seed_part, repeats_part, version_part = parts
        if (
            not seed_part.startswith("seed")
            or not repeats_part.startswith("r")
            or not version_part.startswith("v")
        ):
            return None
        try:
            return cls(
                platform=platform,
                network=network,
                mode=mode,
                seed=int(seed_part[len("seed"):]),
                repeats=int(repeats_part[len("r"):]),
                version=version_part[len("v"):],
            )
        except (ValueError, LutCacheError):
            return None


def validate_entry(text: str, key: LutKey, where: str | None = None) -> LatencyTable:
    """Parse a cache entry and check it matches its key.

    Any tier may hand back bytes (disk, network); before those bytes
    are priced or republished they must parse as a LUT whose identity
    fields agree with the key they were resolved under.  ``where``
    names the entry's location in the error (default: its shard path);
    a local entry passes its file path, so a stale or corrupt file is
    named, not silently re-profiled.
    """
    where = where or f"{key.shard}/{key.filename}"
    try:
        lut = LatencyTable.from_json(text)
    except Exception as error:
        raise LutCacheError(
            f"cache entry {where} is not a valid LUT: {type(error).__name__}: {error}"
        ) from error
    mismatches = [
        f"{field_name}={actual!r} (key says {expected!r})"
        for field_name, actual, expected in (
            ("network", lut.graph_name, key.network),
            ("platform", lut.platform_name, key.platform),
            ("mode", str(lut.mode), key.mode),
        )
        if actual != expected
    ]
    if mismatches:
        raise LutCacheError(
            f"cache entry {where} mismatches its key: {', '.join(mismatches)}"
        )
    return lut


@dataclass
class ShardStats:
    """Aggregate accounting of one ``platform/network`` shard."""

    shard: str
    entries: int = 0
    bytes: int = 0
    versions: set = field(default_factory=set)


class LocalTier:
    """The on-disk shard tree: ``root/platform/network/entry.json``.

    The shard tree is the only layout read: files of the old flat
    layout (``root/platform__network__mode__....json``) are not
    entries.
    """

    #: Failures of this tier abort resolution (local disk problems are
    #: actionable); remote tiers instead fall through the chain.
    soft = False
    writable = True

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.name = f"local:{self.root}"

    def path_for(self, key: LutKey) -> Path:
        """Where a key's entry lives in the shard tree."""
        return self.root / key.platform / key.network / key.filename

    def location(self, key: LutKey) -> str:
        """The entry's file path (names it in validation errors)."""
        return str(self.path_for(key))

    def get(self, key: LutKey) -> str | None:
        """The entry's JSON text, or None on a miss."""
        path = self.path_for(key)
        return path.read_text() if path.exists() else None

    def put(self, key: LutKey, text: str) -> Path:
        """Atomically publish an entry and refresh the shard index."""
        path = atomic_write_text(self.path_for(key), text)
        self._write_index(key.platform, key.network)
        return path

    # -- shard index ---------------------------------------------------------

    def _write_index(self, platform: str, network: str) -> None:
        """Rebuild one shard's ``index.json`` from the files on disk.

        A full-scan rewrite (not read-modify-write): concurrent
        writers each publish a complete, consistent snapshot, and the
        entry files stay the source of truth.
        """
        shard_dir = self.root / platform / network
        entries = {}
        for path in sorted(shard_dir.glob("*.json")):
            key = LutKey.from_entry_name(platform, network, path.name)
            if key is None:
                continue
            entries[path.name] = {
                **key.to_dict(),
                "bytes": path.stat().st_size,
            }
        atomic_write_text(
            shard_dir / INDEX_NAME,
            json.dumps(
                {"shard": f"{platform}/{network}", "entries": entries},
                indent=2,
            ),
        )

    def shard_index(self, platform: str, network: str) -> dict:
        """One shard's index payload (rebuilt on demand if absent)."""
        path = self.root / platform / network / INDEX_NAME
        if not path.exists():
            self._write_index(platform, network)
        if not path.exists():  # shard directory itself absent
            return {"shard": f"{platform}/{network}", "entries": {}}
        return json.loads(path.read_text())

    # -- maintenance ---------------------------------------------------------

    def keys(self) -> list[LutKey]:
        """Every entry key in the shard tree."""
        found = []
        for path in sorted(self.root.glob("*/*/*.json")):
            platform, network = path.parent.parent.name, path.parent.name
            key = LutKey.from_entry_name(platform, network, path.name)
            if key is not None:
                found.append(key)
        return found

    def stats(self) -> list[ShardStats]:
        """Per-shard entry counts / byte totals / versions present."""
        per_shard: dict[str, ShardStats] = {}
        for key in self.keys():
            stat = per_shard.setdefault(key.shard, ShardStats(shard=key.shard))
            stat.entries += 1
            stat.bytes += self.path_for(key).stat().st_size
            stat.versions.add(key.version)
        return [per_shard[shard] for shard in sorted(per_shard)]

    def gc(self, keep_version: str) -> tuple[int, int]:
        """Drop entries of other versions and orphaned temp files.

        Returns ``(files_removed, bytes_reclaimed)``.  Entries profiled
        under another package version can never be served (the version
        is part of every key), so they are pure dead weight; ``*.tmp``
        leftovers are from writers that died mid-publish.
        """
        removed = reclaimed = 0
        touched: set[tuple[str, str]] = set()
        for key in self.keys():
            if key.version == keep_version:
                continue
            path = self.path_for(key)
            reclaimed += path.stat().st_size
            path.unlink()
            removed += 1
            touched.add((key.platform, key.network))
        for tmp in self.root.glob("**/*.tmp"):
            reclaimed += tmp.stat().st_size
            tmp.unlink()
            removed += 1
        for platform, network in touched:
            self._write_index(platform, network)
        return removed, reclaimed


class RemoteTier:
    """A remote shard server: another machine's ``repro serve``.

    Speaks the service's ``GET/PUT /luts/...`` endpoints through the
    stdlib :class:`~repro.runtime.client.ServiceClient` LUT methods
    (one wire-protocol implementation, not two).  Soft by design —
    *any* remote failure (unreachable host, malformed response, error
    status) is wrapped in :class:`LutCacheError`, surfaces on the
    resolution's ``errors`` list, and the chain falls through.
    """

    soft = True
    writable = True

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        from repro.runtime.client import ServiceClient

        self.url = url
        self.client = ServiceClient(url, timeout=timeout)
        self.name = f"remote:{url}"

    def location(self, key: LutKey) -> str:
        """The entry's address on the remote (names it in errors)."""
        return f"{self.url}/luts/{key.shard}/{key.filename}"

    def _call(self, what: str, call):
        """Run one client call, wrapping every remote failure.

        The soft-tier contract says a broken remote must never abort
        resolution, so the net must be wide: connection errors, socket
        timeouts, half-closed responses (``http.client.HTTPException``)
        and non-JSON bodies from intermediaries (``ValueError`` via
        ``json.loads``) all become :class:`LutCacheError`.
        """
        import http.client

        try:
            return call()
        except ServiceError as error:
            raise LutCacheError(
                f"remote tier {self.url} {what} failed: {error}"
            ) from error
        except (OSError, ValueError, http.client.HTTPException) as error:
            raise LutCacheError(
                f"remote tier {self.url} unreachable: {error}"
            ) from error

    def get(self, key: LutKey) -> str | None:
        """Fetch one entry; None on a 404 miss."""
        payload = self._call(
            "GET",
            lambda: self.client.get_lut(key.platform, key.network, **key.query()),
        )
        if payload is None:
            return None
        # The wire re-parse is float-exact: JSON doubles survive a
        # loads/dumps cycle bitwise (shortest-repr round-trip).
        return json.dumps(payload)

    def put(self, key: LutKey, text: str) -> None:
        """Publish one entry to the remote tier (write-through)."""
        self._call(
            "PUT",
            lambda: self.client.put_lut(
                key.platform, key.network, json.loads(text), **key.query()
            ),
        )

    def keys(self) -> list[LutKey]:
        """Every key the remote advertises (``GET /luts``)."""
        rows = self._call("GET /luts", self.client.lut_index)
        return [LutKey(**row) for row in rows]


@dataclass
class LutResolution:
    """Outcome of one tiered lookup."""

    lut: LatencyTable
    #: Name of the tier that answered, or ``"profiled"`` on a miss.
    source: str
    #: True when any cache tier answered (the campaign's accounting bit).
    from_cache: bool
    #: Soft-tier failures encountered along the way (unreachable or
    #: corrupt remotes) — resolution succeeded regardless.
    errors: list[str] = field(default_factory=list)


class TieredLutCache:
    """A resolution chain over cache tiers, profiling as the last rung.

    Tiers are consulted in order; the first hit wins and is
    **filled forward** into every earlier writable tier (a remote hit
    lands in the local tier so the next lookup is local).  On a full
    miss the caller-supplied profiler runs and the result is
    **written through** to every writable tier.
    """

    def __init__(self, tiers: list, registry=None) -> None:
        from repro.runtime.metrics import DEFAULT_REGISTRY

        self.tiers = list(tiers)
        registry = registry if registry is not None else DEFAULT_REGISTRY
        self._hits = registry.counter(
            "repro_lut_cache_hits_total",
            "LUT resolutions answered by a cache tier, by tier kind.",
        )
        self._misses = registry.counter(
            "repro_lut_cache_misses_total",
            "LUT resolutions that fell through to profiling.",
        )

    def resolve(self, job, profile: Callable[[], LatencyTable]) -> LutResolution:
        """Resolve one job's LUT through the chain.

        ``profile`` runs only when every tier misses.  Exactness holds
        tier-independently: entries travel as the exact ``to_json``
        text, validation re-parses them, and JSON round-trips preserve
        every float bitwise.
        """
        key = LutKey.from_job(job)
        errors: list[str] = []
        for i, tier in enumerate(self.tiers):
            try:
                text = tier.get(key)
                if text is None:
                    continue
                lut = validate_entry(text, key, tier.location(key))
            except (LutCacheError, ServiceError) as error:
                if not tier.soft:
                    raise
                errors.append(f"{tier.name}: {error}")
                continue
            self._fill(self.tiers[:i], key, text, errors)
            self._hits.inc(tier="remote" if tier.soft else "local")
            return LutResolution(
                lut=lut, source=tier.name, from_cache=True, errors=errors
            )
        lut = profile()
        self._fill(self.tiers, key, lut.to_json(), errors)
        self._misses.inc()
        return LutResolution(
            lut=lut, source="profiled", from_cache=False, errors=errors
        )

    def peek(self, job) -> LatencyTable | None:
        """Cached-only lookup: the job's LUT if any tier already holds
        it, else None — never profiles, never fills forward.

        The campaign parent uses this to export shared pricing tables
        *before* dispatching workers: only keys the cache can already
        answer are worth exporting (a miss means a worker is about to
        profile anyway, and the fresh entry lands in the cache for the
        next campaign).  Soft-tier failures are swallowed — a peek must
        never be louder than the resolution that follows it.
        """
        key = LutKey.from_job(job)
        for tier in self.tiers:
            try:
                text = tier.get(key)
                if text is None:
                    continue
                return validate_entry(text, key, tier.location(key))
            except (LutCacheError, ServiceError):
                if not tier.soft:
                    raise
                continue
        return None

    def _fill(self, tiers, key: LutKey, text: str, errors: list[str]) -> None:
        for tier in tiers:
            if not tier.writable:
                continue
            try:
                tier.put(key, text)
            except (LutCacheError, ServiceError) as error:
                if not tier.soft:
                    raise
                errors.append(f"{tier.name}: {error}")


def open_cache(
    cache_dir: str | Path | None = None,
    cache_remote: str | list[str] | None = None,
) -> TieredLutCache | None:
    """Build the tier chain from the two CLI spellings.

    ``--cache-dir`` alone is the classic single-tier cache;
    ``--cache-remote`` chains one or more shard servers behind it.
    ``None``/``None`` disables caching entirely (returns None).
    """
    tiers: list = []
    if cache_dir is not None:
        tiers.append(LocalTier(cache_dir))
    if cache_remote:
        remotes = (
            [cache_remote] if isinstance(cache_remote, str) else list(cache_remote)
        )
        tiers.extend(RemoteTier(url) for url in remotes)
    return TieredLutCache(tiers) if tiers else None
