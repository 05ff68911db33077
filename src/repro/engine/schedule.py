"""Network schedules: a primitive assignment for every layer."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.backends.primitive import Primitive
from repro.backends.registry import DesignSpace
from repro.errors import ScheduleError
from repro.nn.graph import NetworkGraph


@dataclass
class NetworkSchedule:
    """Maps every schedulable layer of a graph to a primitive uid.

    This is the deployable artifact QS-DNN produces: feed it back to the
    inference engine optimizer to generate the tuned implementation.
    """

    graph_name: str
    assignments: dict[str, str] = field(default_factory=dict)

    def assign(self, layer_name: str, uid: str) -> None:
        """Set the primitive for one layer."""
        self.assignments[layer_name] = uid

    def primitive_uid(self, layer_name: str) -> str:
        """The uid assigned to ``layer_name``."""
        try:
            return self.assignments[layer_name]
        except KeyError:
            raise ScheduleError(
                f"schedule for {self.graph_name} has no assignment for "
                f"layer {layer_name!r}"
            ) from None

    def validate(self, graph: NetworkGraph, space: DesignSpace) -> None:
        """Check completeness and coverage against a graph and space."""
        if graph.name != self.graph_name:
            raise ScheduleError(
                f"schedule is for {self.graph_name!r}, graph is {graph.name!r}"
            )
        for layer in graph.layers():
            uid = self.primitive_uid(layer.name)
            prim = space.primitive(uid)
            if not prim.supports(layer, graph):
                raise ScheduleError(
                    f"{uid} cannot execute layer {layer.name!r} ({layer.kind})"
                )
        extra = set(self.assignments) - {l.name for l in graph.layers()}
        if extra:
            raise ScheduleError(f"schedule assigns unknown layers: {sorted(extra)}")

    def libraries_used(self, space: DesignSpace) -> list[str]:
        """Sorted set of library names appearing in the schedule."""
        return sorted({space.primitive(u).library for u in self.assignments.values()})

    def __len__(self) -> int:
        return len(self.assignments)

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> str:
        """Serialize as the deployable JSON artifact."""
        return json.dumps(
            {"graph": self.graph_name, "assignments": self.assignments},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "NetworkSchedule":
        """Load a schedule saved by :meth:`to_json`."""
        try:
            payload = json.loads(text)
            return cls(
                graph_name=payload["graph"],
                assignments=dict(payload["assignments"]),
            )
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ScheduleError(f"malformed schedule JSON: {exc}") from exc


def vanilla_schedule(graph: NetworkGraph, space: DesignSpace) -> NetworkSchedule:
    """The all-Vanilla baseline schedule (paper §V-A).

    Vanilla "is the most simple, direct, dependency-free and contains all
    layers that a DNN may use" — it is the denominator of every Table II
    speedup.
    """
    schedule = NetworkSchedule(graph.name)
    for layer in graph.layers():
        vans = [
            p for p in space.candidates(layer, graph) if p.library == "vanilla"
        ]
        if not vans:
            raise ScheduleError(
                f"no vanilla primitive for layer {layer.name!r} ({layer.kind})"
            )
        schedule.assign(layer.name, vans[0].uid)
    return schedule


def primitive_type_schedule(
    graph: NetworkGraph,
    space: DesignSpace,
    primitive: Primitive,
    base: NetworkSchedule | None = None,
) -> NetworkSchedule:
    """The profiling substitution of §V-A.

    "The inference controller benchmarks each primitive type, one at a
    time, by substituting Vanilla for the chosen primitive type in all
    those layers where the acceleration library is able to implement such
    primitive."

    ``base`` is the all-Vanilla schedule to substitute into; a profiler
    builds it once and passes it for every type.  It is left unchanged,
    and built here when omitted.
    """
    if base is None:
        base = vanilla_schedule(graph, space)
    schedule = NetworkSchedule(graph.name, dict(base.assignments))
    for layer in graph.layers():
        if primitive.supports(layer, graph):
            schedule.assign(layer.name, primitive.uid)
    return schedule
