"""Search results and learning curves."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SearchConfig
from repro.engine.schedule import NetworkSchedule
from repro.utils.stats import running_min
from repro.utils.units import format_ms


@dataclass
class SearchResult:
    """Outcome of one search run (QS-DNN or a baseline).

    ``curve_ms[i]`` is the total LUT latency of the configuration sampled
    in episode ``i`` — the raw material of Figs. 4 and 5.  ``best_ms`` is
    the best configuration *seen* during the whole search, which is what
    both the paper's RL and RS report.

    A search resumed from an anytime checkpoint (see
    :mod:`repro.core.checkpoint`) reports the same fields as an
    uninterrupted run — ``curve_ms`` spans all ``episodes`` from 0 and
    ``wall_clock_s`` includes the elapsed time carried in the
    checkpoint, so throughput numbers stay comparable.
    """

    graph_name: str
    method: str
    best_assignments: dict[str, str]
    best_ms: float
    episodes: int
    curve_ms: list[float] = field(default_factory=list)
    epsilon_trace: list[float] = field(default_factory=list)
    wall_clock_s: float = 0.0
    config: SearchConfig | None = None
    #: Total latency of the final fully-greedy policy (RL only).
    greedy_ms: float | None = None
    #: What ran the search's episodes: the per-seed kernel backend
    #: ("numba" or "reference") for the scalar runner kind, "mega" for
    #: members of a SoA mega-batch sweep, "vectorized" for members of a
    #: replay-off sweep batched across seeds in numpy (see
    #: :mod:`repro.core.search`).  None for methods that never enter
    #: the episode loop (baselines).
    kernel_backend: str | None = None
    #: Which Q-prior seeded this run ("off" = cold start; see
    #: :mod:`repro.core.priors`).
    warm_start: str = "off"

    @property
    def best_curve(self) -> list[float]:
        """Best-so-far latency per episode (monotone non-increasing)."""
        return running_min(self.curve_ms)

    @property
    def episodes_per_s(self) -> float | None:
        """Episode throughput of the search (None if not timed)."""
        if self.wall_clock_s > 0:
            return self.episodes / self.wall_clock_s
        return None

    def schedule(self) -> NetworkSchedule:
        """The best configuration as a deployable schedule."""
        return NetworkSchedule(self.graph_name, dict(self.best_assignments))

    def summary(self) -> str:
        """One-line result description."""
        greedy = (
            f", greedy policy {format_ms(self.greedy_ms)}"
            if self.greedy_ms is not None
            else ""
        )
        throughput = self.episodes_per_s
        rate = f", {throughput:,.0f} eps/s" if throughput is not None else ""
        backend = f" [{self.kernel_backend}]" if self.kernel_backend else ""
        return (
            f"{self.method} on {self.graph_name}: best {format_ms(self.best_ms)} "
            f"after {self.episodes} episodes{greedy} "
            f"({self.wall_clock_s:.2f}s wall-clock{rate}){backend}"
        )
