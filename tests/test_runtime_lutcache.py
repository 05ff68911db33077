"""The tiered, sharded LUT cache: keys, tiers, chaining, exactness.

The acceptance property of the whole subsystem is at the bottom: a LUT
resolved from *each* tier (local shard, remote fetch, profile-on-miss)
prices bitwise-identically through the :class:`CostEngine`, and a
client with an empty local tier riding a populated shard server runs
a whole campaign with **zero profiling passes**.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import __version__
from repro.core.config import SearchConfig
from repro.core.search import QSDNNSearch
from repro.errors import LutCacheError, ServiceError
from repro.runtime.campaign import (
    CampaignJob,
    execute_job,
    load_or_profile_lut,
    lut_cache_path,
    profile_lut,
)
from repro.runtime.lutcache import (
    LocalTier,
    LutKey,
    RemoteTier,
    TieredLutCache,
    open_cache,
    validate_entry,
)

from tests.test_runtime_service import LiveService

EPISODES = 120
JOB = CampaignJob(network="fig1_toy", mode="gpgpu", episodes=EPISODES)


class TestLutKey:
    def test_from_job_carries_all_identity_fields(self):
        key = LutKey.from_job(JOB)
        assert key.platform == "jetson_tx2"
        assert key.network == "fig1_toy"
        assert key.mode == "gpgpu"
        assert key.seed == 0 and key.repeats == 50
        assert key.version == __version__

    def test_shard_and_filename(self):
        key = LutKey.from_job(JOB, version="9.9")
        assert key.shard == "jetson_tx2/fig1_toy"
        assert key.filename == "gpgpu__seed0__r50__v9.9.json"

    def test_entry_name_round_trip(self):
        key = LutKey.from_job(JOB)
        parsed = LutKey.from_entry_name(
            key.platform, key.network, key.filename
        )
        assert parsed == key

    @pytest.mark.parametrize(
        "name", ["index.json", "notes.txt", "x.json", "a__b__c.json"]
    )
    def test_non_entry_names_parse_to_none(self, name):
        assert LutKey.from_entry_name("p", "n", name) is None

    @pytest.mark.parametrize("bad", ["../evil", "a/b", "", ".hidden"])
    def test_traversal_segments_rejected(self, bad):
        with pytest.raises(LutCacheError):
            LutKey(
                platform=bad, network="n", mode="cpu",
                seed=0, repeats=50, version="1",
            )

    @pytest.mark.parametrize("bad", ["../../escape", "a/b", "..", ""])
    def test_traversal_version_rejected(self, bad):
        """The version is name-forming too — an unvalidated version
        from the HTTP query would escape the cache root."""
        with pytest.raises(LutCacheError):
            LutKey(
                platform="p", network="n", mode="cpu",
                seed=0, repeats=50, version=bad,
            )


class TestValidateEntry:
    def test_accepts_matching_entry(self):
        lut = profile_lut(JOB)
        key = LutKey.from_job(JOB)
        clone = validate_entry(lut.to_json(), key)
        assert clone.graph_name == lut.graph_name

    def test_rejects_garbage(self):
        with pytest.raises(LutCacheError):
            validate_entry("not json", LutKey.from_job(JOB))

    def test_rejects_mislabeled_entry(self):
        """An entry whose identity fields disagree with its key would
        price a different scenario — it must never be served."""
        lut = profile_lut(JOB)
        wrong = CampaignJob(network="fig1_toy", mode="cpu")
        with pytest.raises(LutCacheError, match="mismatches"):
            validate_entry(lut.to_json(), LutKey.from_job(wrong))


class TestLocalTier:
    def test_put_get_round_trip_in_shard_layout(self, tmp_path):
        tier = LocalTier(tmp_path)
        key = LutKey.from_job(JOB)
        text = profile_lut(JOB).to_json()
        tier.put(key, text)
        assert (tmp_path / "jetson_tx2" / "fig1_toy" / key.filename).exists()
        assert tier.get(key) == text

    def test_miss_is_none(self, tmp_path):
        assert LocalTier(tmp_path).get(LutKey.from_job(JOB)) is None

    def test_index_tracks_entries(self, tmp_path):
        tier = LocalTier(tmp_path)
        key = LutKey.from_job(JOB)
        tier.put(key, profile_lut(JOB).to_json())
        index = tier.shard_index("jetson_tx2", "fig1_toy")
        assert index["shard"] == "jetson_tx2/fig1_toy"
        assert key.filename in index["entries"]
        assert index["entries"][key.filename]["mode"] == "gpgpu"

    def test_stale_format_entry_fails_naming_its_path(self, tmp_path):
        """A cache entry in a format this release does not read is an
        error naming the file — never a silent re-profile."""
        key = LutKey.from_job(JOB)
        payload = json.loads(profile_lut(JOB).to_json())
        del payload["format"]  # what a format-1 writer produced
        tier = LocalTier(tmp_path)
        tier.put(key, json.dumps(payload))

        def profile():
            raise AssertionError("a stale entry must not be re-profiled")

        with pytest.raises(LutCacheError, match="format 1") as caught:
            open_cache(tmp_path).resolve(JOB, profile)
        assert str(tier.path_for(key)) in str(caught.value)

    def test_stats_and_gc(self, tmp_path):
        tier = LocalTier(tmp_path)
        current = LutKey.from_job(JOB)
        stale = LutKey.from_job(JOB, version="0.0.1")
        text = profile_lut(JOB).to_json()
        tier.put(current, text)
        tier.put(stale, text)
        (tmp_path / "jetson_tx2" / "fig1_toy" / "dead.json.123.tmp").write_text("x")

        stats = tier.stats()
        assert len(stats) == 1 and stats[0].entries == 2
        assert stats[0].versions == {__version__, "0.0.1"}

        removed, reclaimed = tier.gc(keep_version=__version__)
        assert removed == 2 and reclaimed > 0
        assert tier.get(current) == text
        assert tier.get(stale) is None
        assert [k.version for k in tier.keys()] == [__version__]
        index = tier.shard_index("jetson_tx2", "fig1_toy")
        assert list(index["entries"]) == [current.filename]


class TestTieredChaining:
    """Chain mechanics with two local tiers (no network needed)."""

    def _profiler(self, counter):
        def run():
            counter.append(1)
            return profile_lut(JOB)

        return run

    def test_miss_profiles_and_writes_through_every_tier(self, tmp_path):
        near, far = LocalTier(tmp_path / "near"), LocalTier(tmp_path / "far")
        calls: list = []
        cache = TieredLutCache([near, far])
        resolution = cache.resolve(JOB, self._profiler(calls))
        assert calls == [1]
        assert not resolution.from_cache
        assert resolution.source == "profiled"
        key = LutKey.from_job(JOB)
        assert near.get(key) is not None and far.get(key) is not None

    def test_far_hit_fills_near_tier(self, tmp_path):
        near, far = LocalTier(tmp_path / "near"), LocalTier(tmp_path / "far")
        far.put(LutKey.from_job(JOB), profile_lut(JOB).to_json())
        calls: list = []
        cache = TieredLutCache([near, far])
        resolution = cache.resolve(JOB, self._profiler(calls))
        assert calls == []  # no profiling
        assert resolution.from_cache and resolution.source == far.name
        assert near.get(LutKey.from_job(JOB)) is not None  # filled forward

    def test_near_hit_stops_the_chain(self, tmp_path):
        near = LocalTier(tmp_path / "near")
        near.put(LutKey.from_job(JOB), profile_lut(JOB).to_json())
        exploding = RemoteTier("http://127.0.0.1:1")  # nothing listens
        calls: list = []
        resolution = TieredLutCache([near, exploding]).resolve(
            JOB, self._profiler(calls)
        )
        assert resolution.from_cache and calls == []

    def test_dead_remote_falls_through_to_profiling(self, tmp_path):
        near = LocalTier(tmp_path / "near")
        dead = RemoteTier("http://127.0.0.1:1")
        calls: list = []
        resolution = TieredLutCache([near, dead]).resolve(
            JOB, self._profiler(calls)
        )
        assert calls == [1] and not resolution.from_cache
        assert resolution.errors and "unreachable" in resolution.errors[0]
        # The local tier still got the write-through.
        assert near.get(LutKey.from_job(JOB)) is not None

    def test_malformed_remote_response_is_soft_too(self, tmp_path, monkeypatch):
        """A remote answering garbage (proxy HTML, half-closed stream)
        raises ValueError/HTTPException inside the client — the soft
        contract says that must fall through, not abort resolution."""
        near = LocalTier(tmp_path / "near")
        flaky = RemoteTier("http://127.0.0.1:1")

        def garbage(*args, **kwargs):
            raise ValueError("Expecting value: line 1 column 1 (char 0)")

        monkeypatch.setattr(flaky.client, "request", garbage)
        calls: list = []
        resolution = TieredLutCache([near, flaky]).resolve(
            JOB, self._profiler(calls)
        )
        assert calls == [1] and not resolution.from_cache
        assert resolution.errors and "unreachable" in resolution.errors[0]

    def test_open_cache_spellings(self, tmp_path):
        assert open_cache(None, None) is None
        local_only = open_cache(tmp_path)
        assert [type(t) for t in local_only.tiers] == [LocalTier]
        chained = open_cache(tmp_path, "http://127.0.0.1:1")
        assert [type(t) for t in chained.tiers] == [LocalTier, RemoteTier]
        multi = open_cache(None, ["http://a:1", "http://b:1"])
        assert len(multi.tiers) == 2


class TestRemoteTierAgainstLiveService:
    def test_fetch_publish_and_listing(self, tmp_path):
        server_dir = tmp_path / "hostA"
        LocalTier(server_dir).put(
            LutKey.from_job(JOB), profile_lut(JOB).to_json()
        )
        with LiveService(workers=0, cache_dir=str(server_dir)) as live:
            remote = RemoteTier(f"http://127.0.0.1:{live.service.port}")
            key = LutKey.from_job(JOB)
            text = remote.get(key)
            assert text is not None
            assert validate_entry(text, key).graph_name == "fig1_toy"
            # Miss: different seed.
            other = CampaignJob(network="fig1_toy", mode="gpgpu", seed=3)
            assert remote.get(LutKey.from_job(other)) is None
            # Push a second entry, then the listing shows both.
            remote.put(LutKey.from_job(other), profile_lut(other).to_json())
            assert len(remote.keys()) == 2
            assert lut_cache_path(server_dir, other).exists()

    def test_put_of_mislabeled_entry_is_rejected(self, tmp_path):
        with LiveService(workers=0, cache_dir=str(tmp_path / "srv")) as live:
            remote = RemoteTier(f"http://127.0.0.1:{live.service.port}")
            wrong_key = LutKey.from_job(
                CampaignJob(network="fig1_toy", mode="cpu")
            )
            with pytest.raises(LutCacheError, match="mismatches"):
                remote.put(wrong_key, profile_lut(JOB).to_json())

    def test_server_without_cache_dir_misses_and_refuses_put(self):
        with LiveService(workers=0) as live:
            remote = RemoteTier(f"http://127.0.0.1:{live.service.port}")
            assert remote.get(LutKey.from_job(JOB)) is None
            with pytest.raises(LutCacheError, match="503"):
                remote.put(LutKey.from_job(JOB), profile_lut(JOB).to_json())
            assert remote.keys() == []

    def test_get_requires_mode(self, tmp_path):
        with LiveService(workers=0, cache_dir=str(tmp_path)) as live:
            status, body = live.client.request(
                "GET", "/luts/jetson_tx2/fig1_toy"
            )
            assert status == 400 and "mode" in body["error"]

    def test_traversal_path_is_400(self, tmp_path):
        with LiveService(workers=0, cache_dir=str(tmp_path)) as live:
            status, body = live.client.request(
                "GET", "/luts/..%2F..%2Fetc/passwd?mode=cpu"
            )
            assert status in (400, 404)
            assert not (tmp_path / ".." / "..").resolve().joinpath(
                "passwd"
            ).exists()

    def test_traversal_version_is_400(self, tmp_path):
        """The version query parameter is name-forming: a traversal
        value must be rejected before it reaches the filesystem, on
        both GET and PUT."""
        cache_root = tmp_path / "srv"
        with LiveService(workers=0, cache_dir=str(cache_root)) as live:
            evil = "mode=cpu&version=..%2F..%2F..%2Fescape"
            status, body = live.client.request(
                "GET", f"/luts/jetson_tx2/fig1_toy?{evil}"
            )
            assert status == 400 and "version" in body["error"]
            status, body = live.client.request(
                "PUT",
                f"/luts/jetson_tx2/fig1_toy?{evil}",
                {"graph_name": "fig1_toy"},
            )
            assert status == 400 and "version" in body["error"]
        assert not (tmp_path / "escape.json").exists()
        assert not (tmp_path.parent / "escape.json").exists()


class TestExactnessAcrossTiers:
    """The acceptance property: every tier prices bitwise-identically."""

    def test_local_remote_and_fresh_profiles_price_bitwise_equal(
        self, tmp_path
    ):
        fresh = profile_lut(JOB)
        server_dir, client_dir = tmp_path / "hostA", tmp_path / "hostB"
        # Tier 1: local shard hit.
        local_lut, hit = load_or_profile_lut(JOB, server_dir)
        assert not hit
        local_again, hit = load_or_profile_lut(JOB, server_dir)
        assert hit
        with LiveService(workers=0, cache_dir=str(server_dir)) as live:
            url = f"http://127.0.0.1:{live.service.port}"
            # Tier 2: remote fetch into an empty local tier.
            remote_lut, remote_hit = load_or_profile_lut(
                JOB, client_dir, url
            )
        assert remote_hit

        engines = [
            lut.engine() for lut in (fresh, local_again, remote_lut)
        ]
        rng = np.random.default_rng(7)
        for _ in range(20):
            choices = np.array(
                [rng.integers(n) for n in fresh.indexed().num_actions],
                dtype=np.int64,
            )
            prices = {engine.price(choices) for engine in engines}
            assert len(prices) == 1  # bitwise identical

        config = SearchConfig(episodes=EPISODES)
        results = [
            QSDNNSearch(lut, config).run()
            for lut in (fresh, local_again, remote_lut)
        ]
        assert len({r.best_ms for r in results}) == 1
        assert results[0].curve_ms == results[1].curve_ms == results[2].curve_ms

    def test_remote_campaign_runs_zero_profiling_passes(
        self, tmp_path, monkeypatch
    ):
        """Two processes: a shard server (host A, populated) and this
        process (host B, empty local tier).  Host B's campaign must
        resolve every LUT remotely — profiling is forbidden outright
        via a monkeypatched profiler."""
        server_dir, client_dir = tmp_path / "hostA", tmp_path / "hostB"
        load_or_profile_lut(JOB, server_dir)  # host A pays the cost once
        with LiveService(workers=0, cache_dir=str(server_dir)) as live:
            url = f"http://127.0.0.1:{live.service.port}"

            def forbidden(job):
                raise AssertionError(
                    f"profiling pass attempted for {job.label}"
                )

            monkeypatch.setattr(
                "repro.runtime.campaign.profile_lut", forbidden
            )
            result = execute_job(
                CampaignJob(
                    network="fig1_toy", mode="gpgpu",
                    episodes=EPISODES, kind="search",
                ),
                cache_dir=client_dir,
                cache_remote=url,
            )
        assert result.lut_from_cache
        # And it matches the local search over the host-A profile.
        monkeypatch.undo()
        lut, _ = load_or_profile_lut(JOB, server_dir)
        local = QSDNNSearch(lut, SearchConfig(episodes=EPISODES)).run()
        assert result.payload.best_ms == local.best_ms


class TestCliLutCache:
    def test_push_then_prefetch_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        host_a = tmp_path / "hostA"
        host_b = tmp_path / "hostB"
        server_dir = tmp_path / "server"
        load_or_profile_lut(JOB, host_a)
        with LiveService(workers=0, cache_dir=str(server_dir)) as live:
            url = f"http://127.0.0.1:{live.service.port}"
            assert main([
                "lut-cache", "push", "--cache-dir", str(host_a),
                "--url", url,
            ]) == 0
            assert "1 entr(ies)" in capsys.readouterr().out
            assert lut_cache_path(server_dir, JOB).exists()
            assert main([
                "lut-cache", "prefetch", "--cache-dir", str(host_b),
                "--url", url,
            ]) == 0
            out = capsys.readouterr().out
            assert "1 fetched" in out
            assert lut_cache_path(host_b, JOB).exists()
            # Second prefetch: everything already local.
            assert main([
                "lut-cache", "prefetch", "--cache-dir", str(host_b),
                "--url", url,
            ]) == 0
            assert "0 fetched, 1 already local" in capsys.readouterr().out
        # The prefetched entry prices bitwise like the original.
        a, _ = load_or_profile_lut(JOB, host_a)
        b, hit = load_or_profile_lut(JOB, host_b)
        assert hit
        choices = np.zeros(len(a.engine()), dtype=np.int64)
        assert a.engine().price(choices) == b.engine().price(choices)

    def test_push_to_dead_server_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        load_or_profile_lut(JOB, tmp_path)
        assert main([
            "lut-cache", "push", "--cache-dir", str(tmp_path),
            "--url", "http://127.0.0.1:1",
        ]) == 1
        assert "failed" in capsys.readouterr().out

    def test_stats_and_gc_commands(self, tmp_path, capsys):
        from repro.cli import main

        load_or_profile_lut(JOB, tmp_path)
        stale = LutKey.from_job(JOB, version="0.0.1")
        LocalTier(tmp_path).put(stale, profile_lut(JOB).to_json())
        assert main(["lut-cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "jetson_tx2/fig1_toy" in out and "0.0.1" in out
        assert main(["lut-cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 file(s)" in capsys.readouterr().out
        assert main(["lut-cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "0.0.1" not in capsys.readouterr().out


class TestServiceErrorTaxonomy:
    def test_lutcache_error_is_repro_error(self):
        from repro.errors import ReproError

        assert issubclass(LutCacheError, ReproError)
        assert not issubclass(LutCacheError, ServiceError)
