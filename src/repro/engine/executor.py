"""Simulated execution of a scheduled network on a platform.

The executor is the "board": it prices every layer with its assigned
primitive's cost model, prices every compatibility layer (layout
conversion, processor transfer) on the graph's edges, applies measurement
noise, and reports per-layer / per-edge breakdowns — the measurements the
profiling phase records.

Penalty conventions (paper §IV-A, §V-B):

* penalties are charged to the *consuming* layer of an edge;
* a processor switch pays one CPU<->GPU copy of the producer's output;
* a layout mismatch pays one conversion pass on the consumer's
  processor, unless the tensor shape makes layouts equivalent;
* both can stack on the same edge (transfer then convert).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from repro.backends.layout import conversion_ms, layouts_equivalent
from repro.backends.registry import DesignSpace
from repro.engine.pricing import CostEngine
from repro.engine.schedule import NetworkSchedule
from repro.hw.platform import Platform
from repro.nn.graph import NetworkGraph


@dataclass
class ExecutionResult:
    """Measured breakdown of one (possibly averaged) network inference."""

    schedule: NetworkSchedule
    layer_ms: dict[str, float] = field(default_factory=dict)
    #: (producer, consumer) -> penalty milliseconds (transfer + conversion).
    penalty_ms: dict[tuple[str, str], float] = field(default_factory=dict)

    @property
    def compute_ms(self) -> float:
        """Sum of per-layer execution times."""
        return sum(self.layer_ms.values())

    @property
    def overhead_ms(self) -> float:
        """Sum of all compatibility penalties."""
        return sum(self.penalty_ms.values())

    @property
    def total_ms(self) -> float:
        """End-to-end network latency."""
        return self.compute_ms + self.overhead_ms

    def slowest_layers(self, count: int = 5) -> list[tuple[str, float]]:
        """The ``count`` most expensive layers, slowest first."""
        ranked = sorted(self.layer_ms.items(), key=lambda kv: kv[1], reverse=True)
        return ranked[:count]


class Executor:
    """Runs schedules for one (graph, space, platform) triple."""

    def __init__(
        self, graph: NetworkGraph, space: DesignSpace, platform: Platform
    ) -> None:
        self.graph = graph
        self.space = space
        self.platform = platform
        self._engine: CostEngine | None = None

    def engine(self) -> CostEngine:
        """The compiled cost-model pricing engine (built once, cached).

        Every (layer, candidate) time and every per-edge candidate-pair
        penalty of the analytic model, in the same dense representation
        the search-phase engine uses — so simulated measurements are
        array gathers instead of repeated model evaluations.
        """
        if self._engine is None:
            self._engine = CostEngine.from_model(self)
        return self._engine

    # -- noiseless pieces -------------------------------------------------------

    def true_layer_ms(self, layer_name: str, uid: str) -> float:
        """Model (noise-free) time of one layer under one primitive."""
        layer = self.graph.layer(layer_name)
        prim = self.space.primitive(uid)
        return prim.estimate_ms(layer, self.graph, self.platform)

    def true_penalty_ms(self, producer: str, consumer: str,
                        producer_uid: str, consumer_uid: str) -> float:
        """Model compatibility penalty on one edge for a primitive pair."""
        prod = self.space.primitive(producer_uid)
        cons = self.space.primitive(consumer_uid)
        tensor = self.graph.output_shape(producer)
        penalty = 0.0
        if prod.processor is not cons.processor:
            penalty += self.platform.transfer_ms(tensor.nbytes)
        if prod.layout is not cons.layout and not layouts_equivalent(tensor):
            penalty += conversion_ms(tensor, self.platform.processor(cons.processor))
        return penalty

    # -- execution -----------------------------------------------------------------

    def run(
        self,
        schedule: NetworkSchedule,
        rng: np.random.Generator | None = None,
        repeats: int = 1,
    ) -> ExecutionResult:
        """Execute ``schedule``; with ``rng`` set, measurements are noisy.

        ``repeats`` averages that many noisy inferences per measurement
        (the paper's 50-image mean).  Without ``rng`` the result is the
        exact model time.

        True (model) times come from the compiled :meth:`engine` — two
        array gathers per run instead of one model evaluation per layer
        and edge.  Every layer is measured, then every edge with a
        non-zero penalty, in one block of noise draws.
        """
        schedule.validate(self.graph, self.space)
        engine = self.engine()
        choices = engine.choices_of(schedule.assignments)
        edge_true = engine.gather_edge_penalties(choices)
        paid = edge_true != 0.0
        measured = np.concatenate([engine.gather_layer_times(choices), edge_true[paid]])
        if rng is not None:
            measured = self.platform.noise.sample_means(measured, rng, repeats)
        values = measured.tolist()
        split = engine.num_layers
        return ExecutionResult(
            schedule,
            layer_ms=dict(zip(engine.layer_names, values[:split])),
            penalty_ms=dict(zip(compress(engine.edges, paid.tolist()), values[split:])),
        )
