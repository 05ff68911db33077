"""The look-up table built by the inference phase (paper §V-A).

"After all inference measurements have been retrieved, a look-up table
is built."  The LUT is the *entire* interface between the board and the
search: per-layer per-primitive execution times, per-edge conversion and
transfer costs, and just enough primitive metadata (library, processor,
layout) to price a penalty between any primitive pair.

The LUT is a plain serializable value object — it can be saved as JSON
next to a deployment, and the search phase (paper: "carried out in a
standard Intel CPU") needs nothing else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.backends.layout import Layout
from repro.backends.primitive import Primitive
from repro.errors import LookupError_, ProfilingError, ScheduleError
from repro.hw.processor import ProcessorKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.pricing import CostEngine

#: The JSON layout :meth:`LatencyTable.to_json` writes — and the only
#: one :meth:`LatencyTable.from_json` reads.
LUT_FORMAT = 2


@dataclass(frozen=True)
class PrimitiveMeta:
    """The slice of Table I the LUT keeps per primitive uid."""

    uid: str
    library: str
    algorithm: str
    impl: str
    blas: str | None
    processor: ProcessorKind
    layout: Layout

    @classmethod
    def from_primitive(cls, prim: Primitive) -> "PrimitiveMeta":
        """Extract the metadata of one design-space primitive."""
        return cls(
            uid=prim.uid,
            library=prim.library,
            algorithm=prim.algorithm,
            impl=prim.impl,
            blas=prim.blas,
            processor=prim.processor,
            layout=prim.layout,
        )


@dataclass
class LatencyTable:
    """Measurements of one network on one platform mode.

    Attributes
    ----------
    layers:
        Schedulable layer names in topological order.
    candidates:
        Per layer, the uids that can execute it (stable order).
    times_ms:
        ``times_ms[layer][uid]`` = measured mean execution time.
    edges:
        ``(producer, consumer)`` pairs (compatibility sites, Fig. 3).
    conversion_ms:
        Per edge, per executing processor: cost of one layout conversion
        of the producer's output (0.0 when layouts are equivalent).
    transfer_ms:
        Per edge: cost of one CPU<->GPU copy of the producer's output
        (absent on CPU-only platforms).
    meta:
        Per uid: the Table I parameters needed to price penalties.
    """

    graph_name: str
    mode: str
    platform_name: str
    layers: list[str]
    candidates: dict[str, list[str]]
    times_ms: dict[str, dict[str, float]]
    edges: list[tuple[str, str]]
    conversion_ms: dict[tuple[str, str], dict[ProcessorKind, float]]
    transfer_ms: dict[tuple[str, str], float]
    meta: dict[str, PrimitiveMeta]
    profiling_inferences: int = 0
    layer_depth: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.layer_depth:
            self.layer_depth = {name: i for i, name in enumerate(self.layers)}
        self._indexed: IndexedLUT | None = None

    # -- lookups ------------------------------------------------------------

    def layer_time(self, layer: str, uid: str) -> float:
        """Measured time of one (layer, primitive) pair."""
        try:
            return self.times_ms[layer][uid]
        except KeyError:
            raise LookupError_(
                f"LUT for {self.graph_name} has no measurement for "
                f"layer {layer!r} with primitive {uid!r}"
            ) from None

    def best_uid(self, layer: str, within: set[str] | None = None) -> str:
        """Fastest uid for a layer, optionally restricted to some uids."""
        entries = self.times_ms.get(layer)
        if not entries:
            raise LookupError_(f"no measurements for layer {layer!r}")
        pool = {u: t for u, t in entries.items() if within is None or u in within}
        if not pool:
            raise LookupError_(
                f"no measurements for layer {layer!r} within {sorted(within or ())}"
            )
        return min(pool, key=pool.get)

    def penalty(self, edge: tuple[str, str], producer_uid: str,
                consumer_uid: str) -> float:
        """Compatibility penalty on ``edge`` for a primitive pair."""
        prod = self.meta[producer_uid]
        cons = self.meta[consumer_uid]
        penalty = 0.0
        if prod.processor is not cons.processor:
            try:
                penalty += self.transfer_ms[edge]
            except KeyError:
                raise LookupError_(
                    f"no transfer measurement for edge {edge!r}"
                ) from None
        if prod.layout is not cons.layout:
            try:
                penalty += self.conversion_ms[edge][cons.processor]
            except KeyError:
                raise LookupError_(
                    f"no conversion measurement for edge {edge!r} on "
                    f"{cons.processor}"
                ) from None
        return penalty

    # -- whole-schedule evaluation ------------------------------------------------

    def schedule_time(self, assignments: dict[str, str]) -> float:
        """Total network time of an assignment, penalties included.

        This is the search's objective function: LUT-only, no board.
        """
        total = 0.0
        for layer in self.layers:
            uid = assignments.get(layer)
            if uid is None:
                raise ScheduleError(f"assignment missing layer {layer!r}")
            total += self.layer_time(layer, uid)
        for edge in self.edges:
            producer, consumer = edge
            total += self.penalty(
                edge, assignments[producer], assignments[consumer]
            )
        return total

    def indexed(self) -> "IndexedLUT":
        """The numpy view for the search inner loop (built once, cached).

        The cache assumes the table is not mutated after its first
        indexing — true for every profiled or deserialized LUT.
        """
        if self._indexed is None:
            self._indexed = IndexedLUT(self)
        return self._indexed

    def engine(self) -> "CostEngine":
        """The compiled vectorized pricing engine for this table."""
        return self.indexed().engine()

    # -- serialization ----------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a JSON string (format 2, the only format read).

        Edge-keyed tables (``conversion_ms``/``transfer_ms``) are
        stored as ``[[producer, consumer], value]`` pairs — JSON has no
        tuple keys, and the old format-1 ``"producer->consumer"``
        string keys could not be split back unambiguously for layer
        names containing ``->``.  Such names are still rejected
        outright: a format-1 reader of this payload (an older release)
        would silently mis-parse them.
        """
        ambiguous = sorted(name for name in self.layers if "->" in name)
        if ambiguous:
            raise ProfilingError(
                f"layer name(s) {ambiguous} contain '->', which is "
                "ambiguous in serialized edge keys; rename the layers"
            )
        payload = {
            "format": LUT_FORMAT,
            "graph_name": self.graph_name,
            "mode": self.mode,
            "platform_name": self.platform_name,
            "layers": self.layers,
            "candidates": self.candidates,
            "times_ms": self.times_ms,
            "edges": [list(e) for e in self.edges],
            "conversion_ms": [
                [[u, v], {str(k): ms for k, ms in per_proc.items()}]
                for (u, v), per_proc in self.conversion_ms.items()
            ],
            "transfer_ms": [
                [[u, v], ms] for (u, v), ms in self.transfer_ms.items()
            ],
            # Depths drive Q-state ordering on branchy graphs; dropping
            # them here once silently reverted non-positional tables to
            # index order after a cache round-trip.
            "layer_depth": self.layer_depth,
            "meta": {
                uid: {
                    "library": m.library,
                    "algorithm": m.algorithm,
                    "impl": m.impl,
                    "blas": m.blas,
                    "processor": str(m.processor),
                    "layout": str(m.layout),
                }
                for uid, m in self.meta.items()
            },
            "profiling_inferences": self.profiling_inferences,
        }
        return json.dumps(payload, indent=2)

    @staticmethod
    def _edge_items(table) -> list[tuple[tuple[str, str], object]]:
        """Normalize an edge-keyed table's ``[[u, v], value]`` pairs to
        ``((u, v), value)``."""
        return [((str(u), str(v)), value) for (u, v), value in table]

    @classmethod
    def from_json(cls, text: str) -> "LatencyTable":
        """Deserialize a LUT saved by :meth:`to_json`.

        Only format 2 is read.  Any other payload — including format 1,
        which carried no ``"format"`` field — raises
        :class:`ProfilingError` naming its format, rather than pricing
        a table whose layout was guessed: re-profile to rebuild it.
        """
        payload = json.loads(text)
        found = payload.get("format", 1) if isinstance(payload, dict) else None
        if found != LUT_FORMAT:
            raise ProfilingError(
                f"LUT payload is format {found!r}; only format {LUT_FORMAT} "
                "is read — re-profile the network to rebuild it"
            )
        meta = {
            uid: PrimitiveMeta(
                uid=uid,
                library=m["library"],
                algorithm=m["algorithm"],
                impl=m["impl"],
                blas=m["blas"],
                processor=ProcessorKind(m["processor"]),
                layout=Layout(m["layout"]),
            )
            for uid, m in payload["meta"].items()
        }
        return cls(
            graph_name=payload["graph_name"],
            mode=payload["mode"],
            platform_name=payload["platform_name"],
            layers=list(payload["layers"]),
            candidates={k: list(v) for k, v in payload["candidates"].items()},
            times_ms={
                k: {u: float(t) for u, t in v.items()}
                for k, v in payload["times_ms"].items()
            },
            edges=[tuple(e) for e in payload["edges"]],
            conversion_ms={
                edge: {ProcessorKind(k): float(ms) for k, ms in per_proc.items()}
                for edge, per_proc in cls._edge_items(payload["conversion_ms"])
            },
            transfer_ms={
                edge: float(ms)
                for edge, ms in cls._edge_items(payload["transfer_ms"])
            },
            meta=meta,
            profiling_inferences=int(payload.get("profiling_inferences", 0)),
            # Payloads saved before depths were serialized carry none;
            # the empty default lets __post_init__ rebuild the
            # positional fallback.
            layer_depth={
                str(k): int(v)
                for k, v in payload.get("layer_depth", {}).items()
            },
        )


class IndexedLUT:
    """Numpy-indexed view of a :class:`LatencyTable` for the inner loops.

    * ``times[i]``: vector of candidate times for layer ``i`` (ordered
      like ``candidates[layer]``);
    * ``edge_matrices[e]``: penalty matrix (producer choice x consumer
      choice) for edge ``e``;
    * ``incoming[i]``: list of ``(producer_layer_index, edge_index)``
      feeding layer ``i`` — the penalties charged to layer ``i``.
    """

    def __init__(self, lut: LatencyTable) -> None:
        self.lut = lut
        self._engine = None
        self.layer_names = list(lut.layers)
        self.layer_index = {name: i for i, name in enumerate(self.layer_names)}
        self.candidate_uids = [list(lut.candidates[n]) for n in self.layer_names]
        self.times = [
            np.array([lut.layer_time(n, u) for u in uids], dtype=np.float64)
            for n, uids in zip(self.layer_names, self.candidate_uids)
        ]
        self.num_actions = np.array([len(t) for t in self.times], dtype=np.int64)

        self.edges = list(lut.edges)
        self.edge_matrices: list[np.ndarray] = []
        self.incoming: list[list[tuple[int, int]]] = [[] for _ in self.layer_names]
        for edge_idx, (producer, consumer) in enumerate(self.edges):
            pi = self.layer_index[producer]
            ci = self.layer_index[consumer]
            prod_uids = self.candidate_uids[pi]
            cons_uids = self.candidate_uids[ci]
            matrix = np.zeros((len(prod_uids), len(cons_uids)), dtype=np.float64)
            for a, pu in enumerate(prod_uids):
                for b, cu in enumerate(cons_uids):
                    matrix[a, b] = lut.penalty((producer, consumer), pu, cu)
            self.edge_matrices.append(matrix)
            self.incoming[ci].append((pi, edge_idx))

        #: Layer whose choice defines the Q state when deciding layer i:
        #: the primary (first) graph predecessor, or -1 when the layer is
        #: fed by the network input (virtual start state).  On chains
        #: this is simply i - 1; on branchy graphs it keys the state to
        #: the producer whose layout/processor actually interacts with
        #: layer i's choice.
        self.q_parent: list[int] = [
            inc[0][0] if inc else -1 for inc in self.incoming
        ]

    def __len__(self) -> int:
        return len(self.layer_names)

    def engine(self) -> "CostEngine":
        """The compiled (cached) vectorized pricing engine."""
        if self._engine is None:
            from repro.engine.pricing import CostEngine

            self._engine = CostEngine.from_indexed(self)
        return self._engine

    def total_ms(self, choices: np.ndarray) -> float:
        """Objective for a full choice vector (one index per layer)."""
        return self.engine().price(choices)

    def assignments(self, choices: np.ndarray) -> dict[str, str]:
        """Convert a choice vector back to layer -> uid assignments."""
        return {
            name: self.candidate_uids[i][c]
            for i, (name, c) in enumerate(zip(self.layer_names, choices))
        }
