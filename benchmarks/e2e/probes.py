"""Which public callables the traced runs wrap, and under which span name.

``install_search`` covers the in-process paper pipeline and search
hot loop; ``install_service`` the campaign service, its fleet workers
and the pool children they fork.  Span names are ``<layer>.<callable>``
with the layer named after its module (see ``harness.SPAN_NAMES``).
"""

from __future__ import annotations

from .spans import Recorder, patch


def _runner_class_path() -> str:
    from repro.core.kernels import resolve_backend

    if resolve_backend("auto") == "numba":
        return "repro.core.kernels.numba_backend:NumbaRunner"
    return "repro.core.kernels.reference:ReferenceRunner"


def install_search(recorder: Recorder) -> None:
    """Wrap profiling, pricing, kernels, search, baselines and deploy."""
    runner = _runner_class_path()
    engine = "repro.engine.pricing:CostEngine"
    full = [
        ("engine.profiler.profile", ["repro.engine.profiler:Profiler"], "profile"),
        ("engine.executor.run", ["repro.engine.executor:Executor"], "run"),
        ("engine.pricing.from_model", [engine], "from_model"),
        ("engine.pricing.from_indexed", [engine], "from_indexed"),
        ("core.search.run", ["repro.core.search:QSDNNSearch"], "run"),
        ("core.multi_seed.run", ["repro.core.multi_seed:MultiSeedSearch"], "run"),
        (
            "core.polish.coordinate_descent",
            ["repro.core.polish", "repro.core.search", "repro.core.multi_seed"],
            "coordinate_descent",
        ),
        (
            "baselines.random_search",
            ["repro.baselines.random_search", "repro.baselines"],
            "random_search",
        ),
        (
            "baselines.single_library_results",
            ["repro.baselines.best_single_library", "repro.baselines"],
            "single_library_results",
        ),
        (
            "engine.optimizer.deploy",
            ["repro.engine.optimizer:InferenceEngineOptimizer"],
            "deploy",
        ),
        ("core.checkpoint.build_checkpoint", ["repro.core.checkpoint"], "build_checkpoint"),
        ("core.checkpoint.seed_snapshot", ["repro.core.checkpoint"], "seed_snapshot"),
        ("core.checkpoint.encode_checkpoint", ["repro.core.checkpoint"], "encode_checkpoint"),
    ]
    for name, owners, attr in full:
        patch(recorder, name, owners, attr)
    leaves = [
        ("engine.pricing.layer_costs", engine, "layer_costs"),
        ("engine.pricing.layer_costs_batch", engine, "layer_costs_batch"),
        ("core.kernels.rollout", runner, "rollout"),
        ("core.kernels.learn", runner, "learn"),
        ("core.kernels.draw_replay_order", runner, "draw_replay_order"),
    ]
    for name, owner, attr in leaves:
        patch(recorder, name, [owner], attr, kind="leaf")


def _key_of_job(position: int):
    def reqid_of(args):
        from repro.runtime.store import job_key

        return job_key(args[position]) if len(args) > position else None

    return reqid_of


def install_service(recorder: Recorder, role: str) -> None:
    """Wrap the data plane; ``role`` is ``service`` or ``worker`` and
    names the process's ``execute_job`` span."""
    service = "repro.runtime.service:CampaignService"
    store = "repro.runtime.store:ResultStore"
    client = "repro.runtime.client:ServiceClient"
    patch(recorder, "runtime.service.submit", [service], "submit",
          reqid_of=_key_of_job(1))
    for attr in ("lease_batch", "finish_remote_batch"):
        patch(recorder, f"runtime.service.{attr}", [service], attr)
    for attr in ("get", "put", "put_many", "flush_timed"):
        patch(recorder, f"runtime.store.{attr}", [store], attr)
    patch(recorder, "runtime.store.encode_payload",
          ["repro.runtime.store", "repro.runtime.worker"], "encode_payload")
    patch(
        recorder,
        f"runtime.{role}.execute_job",
        ["repro.runtime.campaign", "repro.runtime.service", "repro.runtime.worker"],
        "execute_job",
        reqid_of=_key_of_job(0),
        flush_after=True,
    )
    patch(recorder, "runtime.lutcache.load_or_profile_lut",
          ["repro.runtime.campaign"], "load_or_profile_lut")
    patch(recorder, "core.priors.resolve_prior_spec",
          ["repro.core.priors"], "resolve_prior_spec")
    for attr in ("heartbeat", "submit_results"):
        patch(recorder, f"runtime.client.{attr}", [client], attr)
    install_search(recorder)
