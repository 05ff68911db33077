"""The inference engine optimizer facade (paper §III-A, Fig. 2).

Ties the two phases together for a user: profile a network once, hand
the LUT to any search, then *deploy* the resulting schedule — i.e.
re-measure it end-to-end on the (simulated) board and emit a report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends.registry import DesignSpace, Mode, design_space
from repro.engine.executor import ExecutionResult, Executor
from repro.engine.lut import LatencyTable
from repro.engine.profiler import Profiler, ProfilingReport
from repro.engine.schedule import NetworkSchedule
from repro.hw.platform import Platform
from repro.nn.graph import NetworkGraph
from repro.utils.rng import RngStream
from repro.utils.tables import AsciiTable
from repro.utils.units import format_ms


@dataclass
class DeploymentReport:
    """What deploying a schedule on the board measured."""

    schedule: NetworkSchedule
    result: ExecutionResult
    libraries: list[str]

    @property
    def total_ms(self) -> float:
        """Measured end-to-end latency."""
        return self.result.total_ms

    def render(self) -> str:
        """Human-readable deployment summary."""
        table = AsciiTable(
            ["metric", "value"],
            title=f"Deployment of {self.schedule.graph_name}",
        )
        table.add_row(["total latency", format_ms(self.result.total_ms)])
        table.add_row(["layer compute", format_ms(self.result.compute_ms)])
        table.add_row(["compatibility penalties", format_ms(self.result.overhead_ms)])
        table.add_row(["libraries used", ", ".join(self.libraries)])
        hot = ", ".join(
            f"{name} ({format_ms(ms)})" for name, ms in self.result.slowest_layers(3)
        )
        table.add_row(["hottest layers", hot])
        return table.render()


class InferenceEngineOptimizer:
    """Profile networks and deploy schedules on one platform mode."""

    def __init__(
        self,
        graph: NetworkGraph,
        platform: Platform,
        mode: Mode = Mode.CPU,
        seed: int = 0,
        repeats: int = 50,
    ) -> None:
        self.graph = graph
        self.platform = platform
        self.space = design_space(mode, platform)
        self.seed = seed
        self.repeats = repeats
        self._executor = Executor(graph, self.space, platform)
        self._rng = RngStream(seed, "optimizer", graph.name, str(mode))
        self._lut: LatencyTable | None = None
        self._report: ProfilingReport | None = None

    # -- phase 1 -----------------------------------------------------------------

    def profile(self) -> LatencyTable:
        """Run (or reuse) the inference phase; returns the LUT."""
        if self._lut is None:
            profiler = Profiler(
                self.graph, self.space, self.platform,
                seed=self.seed, repeats=self.repeats, executor=self._executor,
            )
            self._lut, self._report = profiler.profile()
        return self._lut

    @property
    def profiling_report(self) -> ProfilingReport:
        """Cost accounting of the last profiling run."""
        if self._report is None:
            self.profile()
        return self._report

    # -- deployment ----------------------------------------------------------------

    def deploy(self, schedule: NetworkSchedule, repeats: int | None = None) -> DeploymentReport:
        """Measure a schedule end-to-end on the board.

        This is the ground-truth evaluation: it does *not* use the LUT,
        so it validates that LUT-driven search results hold on device.
        """
        rng = self._rng.child("deploy", tuple(sorted(schedule.assignments.items())))
        result = self._executor.run(
            schedule, rng=rng, repeats=self.repeats if repeats is None else repeats
        )
        return DeploymentReport(
            schedule=schedule,
            result=result,
            libraries=schedule.libraries_used(self.space),
        )
