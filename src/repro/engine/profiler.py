"""Phase 1: profile every primitive type on the board (paper §V-A).

The protocol is exactly the paper's:

1. Run the all-Vanilla network once — the baseline, and the measurement
   source for every Vanilla primitive.
2. For each non-Vanilla primitive type, run the network with that
   primitive substituted wherever it applies; record the substituted
   layers' times.  ("We only need to infer the whole network on the
   embedded platform as many times as different global implementations
   there exists.")
3. One final pass profiles all compatibility layers (Fig. 3).

Each measurement is the mean of ``repeats`` noisy inferences (the paper
uses 50 images).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends.registry import DesignSpace
from repro.engine.compat import profile_compatibility
from repro.engine.executor import Executor
from repro.engine.lut import LatencyTable, PrimitiveMeta
from repro.engine.schedule import primitive_type_schedule, vanilla_schedule
from repro.errors import ProfilingError
from repro.hw.platform import Platform
from repro.nn.graph import NetworkGraph
from repro.utils.rng import RngStream


@dataclass(frozen=True)
class ProfilingReport:
    """Cost accounting of the inference phase (experiment E6)."""

    graph_name: str
    mode: str
    primitive_types: int
    network_inferences: int  # full-network benchmark passes
    compatibility_passes: int
    simulated_board_ms: float  # total simulated time spent on the board

    @property
    def total_passes(self) -> int:
        """All on-board passes: primitive benchmarks + compatibility."""
        return self.network_inferences + self.compatibility_passes


class Profiler:
    """Builds the :class:`~repro.engine.lut.LatencyTable` for a network."""

    def __init__(
        self,
        graph: NetworkGraph,
        space: DesignSpace,
        platform: Platform,
        seed: int = 0,
        repeats: int = 50,
        executor: Executor | None = None,
    ) -> None:
        if repeats < 1:
            raise ProfilingError("repeats must be >= 1")
        self.graph = graph
        self.space = space
        self.platform = platform
        self.repeats = repeats
        self._rng_stream = RngStream(seed, "profiler", graph.name, str(space.mode))
        # An optimizer passes its own board, so deploy reuses its engine.
        self._executor = executor or Executor(graph, space, platform)

    def profile(self) -> tuple[LatencyTable, ProfilingReport]:
        """Run the full inference phase; returns the LUT and its cost.

        The candidate lists and the all-Vanilla schedule are built once;
        every primitive-type schedule substitutes into that schedule.
        """
        graph, space = self.graph, self.space
        layers = graph.layers()
        times: dict[str, dict[str, float]] = {l.name: {} for l in layers}
        candidates = {
            l.name: [p.uid for p in space.candidates(l, graph)] for l in layers
        }
        present = {uid for uids in candidates.values() for uid in uids}

        board_ms = 0.0
        inferences = 0

        # 1. The all-Vanilla pass measures every vanilla primitive at once.
        base = vanilla_schedule(graph, space)
        rng = self._rng_stream.child("vanilla")
        result = self._executor.run(base, rng=rng, repeats=self.repeats)
        board_ms += result.total_ms * self.repeats
        inferences += 1
        for layer in layers:
            times[layer.name][base.primitive_uid(layer.name)] = result.layer_ms[
                layer.name
            ]

        # 2. One pass per non-Vanilla primitive type.
        for prim in space.primitives:
            if prim.library == "vanilla":
                continue
            if prim.uid not in present:
                continue  # primitive type absent from this network
            schedule = primitive_type_schedule(graph, space, prim, base)
            rng = self._rng_stream.child("primitive", prim.uid)
            result = self._executor.run(schedule, rng=rng, repeats=self.repeats)
            board_ms += result.total_ms * self.repeats
            inferences += 1
            for layer in layers:
                if schedule.primitive_uid(layer.name) == prim.uid:
                    times[layer.name][prim.uid] = result.layer_ms[layer.name]

        # 3. The compatibility pass (Fig. 3).
        rng = self._rng_stream.child("compat")
        conversions, transfers = profile_compatibility(
            graph, self.platform, rng=rng, repeats=self.repeats
        )
        board_ms += (
            sum(ms for per_proc in conversions.values() for ms in per_proc.values())
            + sum(transfers.values())
        ) * self.repeats

        self._check_complete(times, candidates)
        lut = LatencyTable(
            graph_name=graph.name,
            mode=str(space.mode),
            platform_name=self.platform.name,
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

    def _check_complete(
        self, times: dict[str, dict[str, float]], candidates: dict[str, list[str]]
    ) -> None:
        """Every candidate of every layer must have a measurement."""
        for layer_name, uids in candidates.items():
            missing = [u for u in uids if u not in times[layer_name]]
            if missing:
                raise ProfilingError(
                    f"profiling left layer {layer_name!r} without measurements "
                    f"for: {missing}"
                )
