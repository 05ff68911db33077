"""The campaign runtime: job grids, sharding, and the LUT disk cache."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.compare import MethodComparison, compare_methods_many
from repro.analysis.speedup import Table2Row, run_table2
from repro.backends.registry import Mode
from repro.errors import ConfigError
from repro.hw import jetson_tx2
from repro.runtime.campaign import (
    Campaign,
    CampaignJob,
    execute_job,
    grid,
    load_or_profile_lut,
    lut_cache_path,
)

EPISODES = 120  # small but >= the 20-episode floor of the paper schedule


class TestCampaignJob:
    def test_rejects_unknown_network(self):
        with pytest.raises(ConfigError):
            CampaignJob(network="nope")

    def test_rejects_unknown_platform(self):
        with pytest.raises(ConfigError):
            CampaignJob(network="lenet5", platform="beagleboard")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            CampaignJob(network="lenet5", kind="wat")

    def test_label(self):
        job = CampaignJob(network="lenet5", mode="gpgpu", seed=3)
        assert job.label == "lenet5/jetson_tx2/gpgpu/seed3"

    def test_grid_cross_product(self):
        jobs = grid(
            ["lenet5", "fig1_toy"], modes=["cpu", "gpgpu"], seeds=[0, 1]
        )
        assert len(jobs) == 8
        assert len({(j.network, j.mode, j.seed) for j in jobs}) == 8


class TestLutCache:
    def test_miss_then_hit(self, tmp_path):
        job = CampaignJob(network="fig1_toy", mode="cpu", episodes=EPISODES)
        lut, cached = load_or_profile_lut(job, tmp_path)
        assert not cached
        assert lut_cache_path(tmp_path, job).exists()
        again, cached = load_or_profile_lut(job, tmp_path)
        assert cached
        # The JSON round-trip preserves pricing exactly.
        engine, engine2 = lut.engine(), again.engine()
        choices = [0] * len(engine)
        assert engine.price(choices) == engine2.price(choices)

    def test_cache_keys_are_distinct(self, tmp_path):
        a = CampaignJob(network="fig1_toy", mode="cpu")
        b = CampaignJob(network="fig1_toy", mode="gpgpu")
        c = CampaignJob(network="fig1_toy", mode="cpu", seed=1)
        paths = {lut_cache_path(tmp_path, j) for j in (a, b, c)}
        assert len(paths) == 3

    def test_no_cache_dir_profiles_fresh(self):
        job = CampaignJob(network="fig1_toy", mode="cpu")
        lut, cached = load_or_profile_lut(job, None)
        assert not cached and lut.graph_name == "fig1_toy"


class TestExecuteJob:
    def test_table2_payload(self, tmp_path):
        job = CampaignJob(network="fig1_toy", mode="cpu", episodes=EPISODES)
        result = execute_job(job, tmp_path)
        assert isinstance(result.payload, Table2Row)
        assert result.payload.network == "fig1_toy"
        assert result.payload.qsdnn_ms > 0
        assert not result.lut_from_cache
        assert execute_job(job, tmp_path).lut_from_cache

    def test_compare_payload(self):
        job = CampaignJob(
            network="fig1_toy", mode="gpgpu", episodes=EPISODES, kind="compare"
        )
        result = execute_job(job, None)
        assert isinstance(result.payload, MethodComparison)
        assert result.payload.optimal_ms is not None  # proven optimal
        assert result.payload.cem_ms > 0 and result.payload.ga_ms > 0

    @pytest.mark.parametrize("kind,method", [("cem", "cem"), ("ga", "genetic")])
    def test_population_baseline_payloads(self, kind, method):
        job = CampaignJob(
            network="fig1_toy", mode="gpgpu", episodes=EPISODES, kind=kind
        )
        result = execute_job(job, None)
        assert result.payload.method == method
        assert result.payload.best_ms > 0

    def test_search_payload_matches_direct_run(self):
        """kind="search" is bitwise the same search `repro search` runs."""
        from repro.core import QSDNNSearch, SearchConfig, SearchResult

        job = CampaignJob(
            network="fig1_toy", mode="gpgpu", episodes=EPISODES, kind="search"
        )
        result = execute_job(job)
        assert isinstance(result.payload, SearchResult)
        lut, _ = load_or_profile_lut(job)
        direct = QSDNNSearch(lut, SearchConfig(episodes=EPISODES)).run()
        assert result.payload.best_ms == direct.best_ms
        assert result.payload.curve_ms == direct.curve_ms

    def test_multi_seed_payload(self):
        from repro.core import MultiSeedResult

        job = CampaignJob(
            network="fig1_toy",
            mode="gpgpu",
            episodes=EPISODES,
            kind="multi-seed",
            seeds=3,
        )
        result = execute_job(job, None)
        assert isinstance(result.payload, MultiSeedResult)
        assert len(result.payload.results) == 3
        assert result.payload.seeds == [0, 1, 2]

    def test_rejects_bad_seed_count(self):
        with pytest.raises(ConfigError):
            CampaignJob(network="fig1_toy", kind="multi-seed", seeds=0)


class TestCampaign:
    def test_rejects_empty_and_bad_workers(self):
        with pytest.raises(ConfigError):
            Campaign([])
        with pytest.raises(ConfigError):
            Campaign([CampaignJob(network="fig1_toy")], workers=0)

    def test_serial_run_preserves_job_order(self, tmp_path):
        jobs = grid(["fig1_toy", "lenet5"], modes=["cpu"], episodes=EPISODES)
        results = Campaign(jobs, workers=1, cache_dir=tmp_path).run()
        assert [r.payload.network for r in results] == ["fig1_toy", "lenet5"]

    def test_parallel_equals_serial(self, tmp_path):
        jobs = grid(
            ["fig1_toy"], modes=["cpu", "gpgpu"], episodes=EPISODES
        )
        serial = Campaign(jobs, workers=1, cache_dir=tmp_path).run()
        parallel = Campaign(jobs, workers=2, cache_dir=tmp_path).run()
        for s, p in zip(serial, parallel):
            assert s.job == p.job
            assert s.payload == p.payload
        assert all(r.lut_from_cache for r in parallel)


class TestLutMemo:
    def test_memo_serves_repeat_calls_without_reparsing(self, tmp_path):
        job = CampaignJob(network="fig1_toy", mode="cpu", episodes=EPISODES)
        first, cached = load_or_profile_lut(job, tmp_path)
        assert not cached
        again, cached = load_or_profile_lut(job, tmp_path)
        assert cached
        # Same object: the indexed()/engine() caches stay warm across
        # jobs in one process instead of being rebuilt per job.
        assert again is first

    def test_memo_is_scoped_to_the_cache_identity(self, tmp_path):
        job = CampaignJob(network="fig1_toy", mode="cpu", episodes=EPISODES)
        load_or_profile_lut(job, tmp_path / "a")
        # A different cache directory is a different world: the first
        # call against it must profile (and report from_cache=False),
        # never be answered by another cache's memo entry.
        lut, cached = load_or_profile_lut(job, tmp_path / "b")
        assert not cached
        assert lut.graph_name == "fig1_toy"

    def test_no_cache_means_no_memo(self):
        job = CampaignJob(network="fig1_toy", mode="cpu", episodes=EPISODES)
        a, cached_a = load_or_profile_lut(job, None)
        b, cached_b = load_or_profile_lut(job, None)
        assert not cached_a and not cached_b
        assert a is not b  # fresh profile every call, as documented


class TestForkedCampaign:
    """``Campaign.run(workers > 1)`` forks; each test pins the fork in
    a fresh interpreter, where no other thread keeps it in-process."""

    @staticmethod
    def _run_script(body: str, tmp_path) -> str:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(body), str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=240,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_killed_child_names_its_job(self, tmp_path):
        """A child SIGKILLed mid-job: the campaign raises naming that
        job's label and leaves no child behind."""
        out = self._run_script(
            """
            import multiprocessing, os, signal, sys

            from repro.errors import SearchError
            from repro.runtime import campaign

            jobs = campaign.grid(
                ["fig1_toy"], modes=["cpu", "gpgpu"], episodes=120
            )
            execute = campaign.execute_job

            def killing(job, *args, **kwargs):
                if job.mode == "gpgpu":
                    os.kill(os.getpid(), signal.SIGKILL)
                return execute(job, *args, **kwargs)

            campaign.execute_job = killing
            try:
                campaign.Campaign(jobs, workers=2, cache_dir=sys.argv[1]).run()
            except SearchError as error:
                print(error)
            assert multiprocessing.active_children() == []
            """,
            tmp_path,
        )
        assert (
            "campaign job fig1_toy/jetson_tx2/gpgpu/seed0 exited with code -9"
            in out
        )

    def test_children_keep_their_lut_memo(self, tmp_path):
        """Two children, four jobs on one LUT key: a child reads the
        LUT from disk for its first job and from its memo after."""
        out = self._run_script(
            """
            import os, sys

            from repro.runtime import campaign

            job = campaign.CampaignJob(
                network="fig1_toy", mode="cpu", episodes=120
            )
            campaign.Campaign([job], cache_dir=sys.argv[1]).run()  # warm
            campaign._LUT_MEMO.clear()
            resolve = campaign.load_or_profile_lut

            def logged(job, *args):
                memo = len(campaign._LUT_MEMO)
                lut, cached = resolve(job, *args)
                os.write(1, f"{os.getpid()} {memo} {cached}\\n".encode())
                return lut, cached

            campaign.load_or_profile_lut = logged
            campaign.Campaign(
                [job] * 4, workers=2, cache_dir=sys.argv[1]
            ).run()
            """,
            tmp_path,
        )
        seen: dict[str, list[int]] = {}
        for line in out.split("\n"):
            if line:
                pid, memo, cached = line.split()
                assert cached == "True"
                seen.setdefault(pid, []).append(int(memo))
        assert len(seen) == 2 and sum(map(len, seen.values())) == 4
        for sizes in seen.values():
            assert sizes == [0] + [1] * (len(sizes) - 1)


class TestAnalysisWiring:
    def test_customized_platform_rejected(self, tmp_path):
        """Campaign workers rebuild platforms by name; a customized
        platform must fail loudly rather than silently lose its
        configuration."""
        noisy = jetson_tx2(noise_sigma=0.5)  # same name, different board
        with pytest.raises(ConfigError):
            run_table2(
                ["fig1_toy"], Mode.CPU, noisy,
                episodes=EPISODES, jobs=2, cache_dir=str(tmp_path),
            )
        from repro.hw.presets import cpu_only

        derived = cpu_only(jetson_tx2())  # name not in the registry
        with pytest.raises(ConfigError):
            compare_methods_many(
                ["fig1_toy"], Mode.CPU, derived, episodes=EPISODES
            )

    def test_run_table2_sharded(self, tmp_path):
        tx2 = jetson_tx2()
        serial = run_table2(
            ["fig1_toy"], Mode.CPU, tx2, episodes=EPISODES, seed=0
        )
        sharded = run_table2(
            ["fig1_toy"],
            Mode.CPU,
            tx2,
            episodes=EPISODES,
            seed=0,
            jobs=2,
            cache_dir=str(tmp_path),
        )
        assert serial[0].qsdnn_ms == sharded[0].qsdnn_ms
        assert serial[0].vanilla_ms == sharded[0].vanilla_ms

    def test_compare_methods_many(self, tmp_path):
        tx2 = jetson_tx2()
        comps = compare_methods_many(
            ["fig1_toy"],
            Mode.CPU,
            tx2,
            episodes=EPISODES,
            jobs=1,
            cache_dir=str(tmp_path),
        )
        assert len(comps) == 1
        assert comps[0].network == "fig1_toy"
        assert comps[0].qsdnn_ms <= comps[0].greedy_ms + 1e-9
