"""The unified vectorized pricing engine.

Every consumer of the search objective — the RL rollout, the polish,
the baselines, the executor's simulated measurements — prices the same
quantity: per-layer primitive times plus per-edge compatibility
penalties (the PBQP view of Anderson & Gregg [14]: one cost vector per
layer, one cost matrix per edge).  The :class:`CostEngine` owns that
representation once, compiled into dense NumPy structures:

* ``times_dense``  — an ``(L, A)`` matrix of per-layer candidate times,
  padded with ``+inf`` beyond each layer's candidate count (an invalid
  choice therefore prices to ``inf`` instead of silently succeeding);
* ``edge_penalties`` — an ``(E, A, A)`` tensor of per-edge penalty
  matrices, zero-padded;
* ``edge_src`` / ``edge_dst`` — the layer indices each edge connects.

On top of that it exposes the three pricing primitives the search
needs:

* :meth:`price` — one schedule, one float;
* :meth:`price_batch` — ``B`` schedules at once, no Python-level
  per-layer loop;
* :meth:`layer_costs` — the shaped per-layer reward vector (own time
  plus penalties on incoming edges, charged to the consumer — paper
  §V-B), which is exactly minus the RL reward vector.

Engines compile from a profiled LUT (:meth:`from_lut` /
:meth:`from_indexed`) or straight from the executor's analytic cost
model (:meth:`from_model`) — both yield the same dense interface, which
is what lets the property tests pin LUT pricing against board pricing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ScheduleError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.lut import IndexedLUT, LatencyTable


class CostEngine:
    """Dense, vectorized pricing of primitive-selection schedules.

    Parameters
    ----------
    layer_names:
        Schedulable layers in topological order.
    candidate_uids:
        Per layer, the candidate primitive uids (stable order — choice
        ``c`` at layer ``i`` means ``candidate_uids[i][c]``).
    times:
        Per layer, the 1-D vector of candidate times (same order).
    edges:
        ``(producer_name, consumer_name)`` pairs.
    edge_matrices:
        Per edge, the (producer choice x consumer choice) penalty
        matrix.
    """

    def __init__(
        self,
        layer_names: Sequence[str],
        candidate_uids: Sequence[Sequence[str]],
        times: Sequence[np.ndarray] | None,
        edges: Sequence[tuple[str, str]],
        edge_matrices: Sequence[np.ndarray] | None,
        *,
        dense_tables: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        self.layer_names = list(layer_names)
        self.layer_index = {n: i for i, n in enumerate(self.layer_names)}
        self.candidate_uids = [list(u) for u in candidate_uids]
        self._uid_index = [
            {u: c for c, u in enumerate(uids)} for uids in self.candidate_uids
        ]
        self.edges = [tuple(e) for e in edges]
        num_layers = len(self.layer_names)
        num_edges = len(self.edges)

        if dense_tables is not None:
            # Zero-copy construction over pre-built dense tensors (the
            # shared-memory attach path): ``times`` / ``edge_matrices``
            # become truncated views into the padded tables, nothing is
            # re-filled, and the big arrays are adopted as-is — which
            # is exactly what makes an 8-worker host hold one tensor
            # copy per (platform, network) instead of eight.
            times_dense, edge_penalties = dense_tables
            counts = [len(u) for u in self.candidate_uids]
            if len(layer_names) != len(candidate_uids):
                raise ScheduleError("layer_names and candidate_uids must align")
            if (
                times_dense.dtype != np.float64
                or times_dense.ndim != 2
                or times_dense.shape[0] != num_layers
                or (num_layers and times_dense.shape[1] != max(counts))
            ):
                raise ScheduleError(
                    f"dense time table has shape {times_dense.shape}, "
                    f"expected ({num_layers}, {max(counts) if counts else 0})"
                )
            max_actions = times_dense.shape[1] if num_layers else 0
            if (
                edge_penalties.dtype != np.float64
                or edge_penalties.shape
                != (num_edges, max_actions, max_actions)
            ):
                raise ScheduleError(
                    f"dense edge table has shape {edge_penalties.shape}, "
                    f"expected ({num_edges}, {max_actions}, {max_actions})"
                )
            self.times_dense = times_dense
            self.times = [times_dense[i, :n] for i, n in enumerate(counts)]
            self.num_actions = np.array(counts, dtype=np.int64)
            self.edge_penalties = edge_penalties
            self.edge_matrices = []
        else:
            if (
                times is None
                or edge_matrices is None
                or len(layer_names) != len(candidate_uids)
                or len(layer_names) != len(times)
            ):
                raise ScheduleError(
                    "layer_names, candidate_uids and times must align"
                )
            if len(edges) != len(edge_matrices):
                raise ScheduleError("edges and edge_matrices must align")
            self.times = [np.asarray(t, dtype=np.float64) for t in times]
            self.num_actions = np.array(
                [len(t) for t in self.times], dtype=np.int64
            )
            max_actions = int(self.num_actions.max()) if num_layers else 0
            # Dense per-layer time matrix; +inf padding makes an
            # out-of-range (but < max_actions) choice price to infinity.
            self.times_dense = np.full(
                (num_layers, max_actions), np.inf, dtype=np.float64
            )
            for i, t in enumerate(self.times):
                self.times_dense[i, : len(t)] = t
            self.edge_matrices = [
                np.asarray(m, dtype=np.float64) for m in edge_matrices
            ]
            self.edge_penalties = np.zeros(
                (num_edges, max_actions, max_actions), dtype=np.float64
            )

        self.edge_src = np.empty(num_edges, dtype=np.int64)
        self.edge_dst = np.empty(num_edges, dtype=np.int64)
        #: Per layer: (edge_idx, other_layer, layer_is_consumer) for
        #: every incident edge — the single-layer move neighborhood.
        self.incident: list[list[tuple[int, int, bool]]] = [
            [] for _ in range(num_layers)
        ]
        for e, (producer, consumer) in enumerate(self.edges):
            pi = self.layer_index[producer]
            ci = self.layer_index[consumer]
            self.edge_src[e] = pi
            self.edge_dst[e] = ci
            if dense_tables is not None:
                # Truncated views into the adopted padded tensor; the
                # padding region is zero by construction, so the views
                # carry exactly the original per-edge matrices.
                self.edge_matrices.append(
                    self.edge_penalties[
                        e,
                        : len(self.candidate_uids[pi]),
                        : len(self.candidate_uids[ci]),
                    ]
                )
            else:
                matrix = self.edge_matrices[e]
                self.edge_penalties[
                    e, : matrix.shape[0], : matrix.shape[1]
                ] = matrix
            self.incident[ci].append((e, pi, True))
            self.incident[pi].append((e, ci, False))

        self._layer_arange = np.arange(num_layers)
        self._edge_arange = np.arange(num_edges)
        # Flat views + per-row offsets: batched pricing gathers via
        # ``take`` on these, which is markedly faster than broadcast
        # advanced indexing for the small (B, L) batches the lockstep
        # searches issue every episode.
        self._times_flat = self.times_dense.reshape(-1)
        self._times_offsets = self._layer_arange * max_actions
        self._edge_flat = self.edge_penalties.reshape(-1)
        self._edge_offsets = self._edge_arange * max_actions * max_actions
        self._max_actions = max_actions
        # Edges grouped into "rounds": round r holds every consumer's
        # (r+1)-th incoming edge, in edge order.  Applying the rounds
        # in sequence adds each consumer's penalties in exactly the
        # edge order ``np.add.at`` would use — bit-identical batched
        # accumulation without the (slow) buffered ufunc.at path.
        # Round count == the graph's max in-degree (tiny).
        per_dst_seen: dict[int, int] = {}
        round_members: list[list[int]] = []
        for e in range(num_edges):
            r = per_dst_seen.get(int(self.edge_dst[e]), 0)
            per_dst_seen[int(self.edge_dst[e])] = r + 1
            if r == len(round_members):
                round_members.append([])
            round_members[r].append(e)
        self._edge_rounds = [
            (self.edge_dst[members], np.asarray(members, dtype=np.int64))
            for members in round_members
        ]

    # -- construction -------------------------------------------------------

    @classmethod
    def from_indexed(cls, idx: "IndexedLUT") -> "CostEngine":
        """Compile an :class:`~repro.engine.lut.IndexedLUT`."""
        return cls(
            layer_names=idx.layer_names,
            candidate_uids=idx.candidate_uids,
            times=idx.times,
            edges=idx.edges,
            edge_matrices=idx.edge_matrices,
        )

    @classmethod
    def from_lut(cls, lut: "LatencyTable") -> "CostEngine":
        """Compile a profiled latency table (the search-phase engine)."""
        return lut.indexed().engine()

    @classmethod
    def from_model(cls, executor) -> "CostEngine":
        """Compile an executor's analytic cost model (the board-side
        engine): every (layer, candidate) time, and every per-edge
        penalty once per pair of (processor, layout) classes.

        ``executor`` is any object with the :class:`Executor` pricing
        surface (``graph``, ``space``, ``true_layer_ms``,
        ``true_penalty_ms``).
        """
        graph, space = executor.graph, executor.space
        layers = list(graph.layers())
        layer_names = [l.name for l in layers]
        candidates = [space.candidates(l, graph) for l in layers]
        candidate_uids = [[p.uid for p in cands] for cands in candidates]
        times = [
            np.array(
                [executor.true_layer_ms(name, p.uid) for p in cands],
                dtype=np.float64,
            )
            for name, cands in zip(layer_names, candidates)
        ]
        # A penalty depends only on the (processor, layout) classes of
        # the two primitives: each edge prices every class pair once and
        # the candidate-pair matrix gathers from that small table.
        classes = []  # per layer: (class of each candidate, one uid per class)
        for cands in candidates:
            first: dict = {}  # class -> (its index, its first candidate)
            members = [
                first.setdefault((p.processor, p.layout), (len(first), p.uid))[0]
                for p in cands
            ]
            classes.append((members, [uid for _, uid in first.values()]))
        index = {n: i for i, n in enumerate(layer_names)}
        edges = [tuple(e) for e in graph.edges()]
        edge_matrices = []
        for producer, consumer in edges:
            prod_class, prod_uids = classes[index[producer]]
            cons_class, cons_uids = classes[index[consumer]]
            table = np.array(
                [
                    [
                        executor.true_penalty_ms(producer, consumer, pu, cu)
                        for cu in cons_uids
                    ]
                    for pu in prod_uids
                ],
                dtype=np.float64,
            )
            edge_matrices.append(table[np.ix_(prod_class, cons_class)])
        return cls(layer_names, candidate_uids, times, edges, edge_matrices)

    # -- basics -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.layer_names)

    @property
    def num_layers(self) -> int:
        """Number of schedulable layers (the L of every choice vector)."""
        return len(self.layer_names)

    @property
    def num_edges(self) -> int:
        """Number of penalized producer→consumer edges."""
        return len(self.edges)

    def choices_of(self, assignments: Mapping[str, str]) -> np.ndarray:
        """Convert layer -> uid assignments into a choice vector."""
        choices = np.empty(self.num_layers, dtype=np.int64)
        for i, name in enumerate(self.layer_names):
            uid = assignments.get(name)
            if uid is None:
                raise ScheduleError(f"assignment missing layer {name!r}")
            try:
                choices[i] = self._uid_index[i][uid]
            except KeyError:
                raise ScheduleError(
                    f"{uid!r} is not a candidate of layer {name!r}"
                ) from None
        return choices

    def assignments(self, choices: np.ndarray | Sequence[int]) -> dict[str, str]:
        """Convert a choice vector back to layer -> uid assignments."""
        return {
            name: self.candidate_uids[i][int(c)]
            for i, (name, c) in enumerate(zip(self.layer_names, choices))
        }

    # -- pricing ------------------------------------------------------------

    def price_batch(self, choices_matrix: np.ndarray) -> np.ndarray:
        """Objectives for ``B`` schedules at once.

        ``choices_matrix`` is ``(B, L)`` (one candidate index per
        layer); returns the ``(B,)`` vector of total milliseconds.  No
        Python-level per-layer loop.
        """
        batch = np.asarray(choices_matrix, dtype=np.int64)
        if batch.ndim != 2 or batch.shape[1] != self.num_layers:
            raise ScheduleError(
                f"choices matrix must be (B, {self.num_layers}), "
                f"got {batch.shape}"
            )
        if batch.size and (batch.min() < 0 or batch.max() >= self._max_actions):
            raise ScheduleError("choice indices out of range")
        totals = self._times_flat.take(self._times_offsets + batch).sum(axis=1)
        if self.num_edges:
            totals = totals + self._gather_edge_penalties(batch).sum(axis=1)
        return totals

    def _gather_edge_penalties(self, batch: np.ndarray) -> np.ndarray:
        """``(B, E)`` per-edge penalties of a validated ``(B, L)`` batch."""
        return self._edge_flat.take(
            self._edge_offsets
            + batch[:, self.edge_src] * self._max_actions
            + batch[:, self.edge_dst]
        )

    def price(self, choices: np.ndarray | Sequence[int]) -> float:
        """Objective of one full choice vector (one index per layer)."""
        batch = np.asarray(choices, dtype=np.int64)[None, :]
        return float(self.price_batch(batch)[0])

    def layer_costs(self, choices: np.ndarray | Sequence[int]) -> np.ndarray:
        """Per-layer shaped cost vector of one schedule.

        ``layer_costs(c)[i]`` is layer ``i``'s own time plus every
        penalty on its incoming edges (charged to the consumer, paper
        §V-B) — minus the RL reward of deciding layer ``i``.  Sums to
        :meth:`price` of the same choices.
        """
        vec = np.asarray(choices, dtype=np.int64)
        if vec.size and vec.min() < 0:
            raise ScheduleError("choice indices must be non-negative")
        costs = self.times_dense[self._layer_arange, vec]
        if self.num_edges:
            np.add.at(
                costs,
                self.edge_dst,
                self.edge_penalties[
                    self._edge_arange, vec[self.edge_src], vec[self.edge_dst]
                ],
            )
        return costs

    def layer_costs_batch(
        self, choices_matrix: np.ndarray, checked: bool = True
    ) -> np.ndarray:
        """Per-layer shaped cost vectors of ``B`` schedules at once.

        ``choices_matrix`` is ``(B, L)``; returns ``(B, L)`` where row
        ``b`` equals ``layer_costs(choices_matrix[b])`` bit-for-bit:
        the penalty accumulation applies each consumer's incoming edges
        in edge order, exactly like the single-schedule scatter-add, so
        lockstep multi-seed searches that price all their rollouts in
        one call reproduce per-seed pricing to the last ulp.

        ``checked=False`` skips conversion and validation for callers
        (the per-episode lockstep loop) that already hold a validated
        int64 ``(B, L)`` matrix.
        """
        if checked:
            batch = np.asarray(choices_matrix, dtype=np.int64)
            if batch.ndim != 2 or batch.shape[1] != self.num_layers:
                raise ScheduleError(
                    f"choices matrix must be (B, {self.num_layers}), "
                    f"got {batch.shape}"
                )
            if batch.size and (batch.min() < 0 or batch.max() >= self._max_actions):
                raise ScheduleError("choice indices out of range")
        else:
            batch = choices_matrix
        costs = self._times_flat.take(self._times_offsets + batch)
        if self.num_edges:
            penalties = self._gather_edge_penalties(batch)
            for dsts, members in self._edge_rounds:
                costs[:, dsts] += penalties[:, members]
        return costs

    def kernel_views(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """Flat pricing arrays for the compiled episode kernels.

        Returns ``(times_flat, times_offsets, edge_flat, edge_offsets,
        edge_src, edge_dst, max_actions)``: layer ``i``'s candidate
        ``c`` prices at ``times_flat[times_offsets[i] + c]`` and edge
        ``e``'s penalty for (producer choice ``a``, consumer choice
        ``b``) at ``edge_flat[edge_offsets[e] + a * max_actions + b]``.
        A scalar walk over these — per-layer gather, then incoming-edge
        penalties accumulated in edge order — reproduces
        :meth:`layer_costs` bit-for-bit.
        """
        return (
            self._times_flat,
            self._times_offsets,
            self._edge_flat,
            self._edge_offsets,
            self.edge_src,
            self.edge_dst,
            self._max_actions,
        )

    def gather_layer_times(self, choices: np.ndarray | Sequence[int]) -> np.ndarray:
        """Per-layer times only (no penalties) of one schedule."""
        vec = np.asarray(choices, dtype=np.int64)
        return self.times_dense[self._layer_arange, vec]

    def gather_edge_penalties(
        self, choices: np.ndarray | Sequence[int]
    ) -> np.ndarray:
        """Per-edge penalties of one schedule, in edge order."""
        vec = np.asarray(choices, dtype=np.int64)
        if not self.num_edges:
            return np.zeros(0, dtype=np.float64)
        return self.edge_penalties[
            self._edge_arange, vec[self.edge_src], vec[self.edge_dst]
        ]

    # -- single-layer moves (polish / annealing neighborhoods) --------------

    def move_costs(
        self, choices: np.ndarray | Sequence[int], layer: int
    ) -> np.ndarray:
        """Total-cost contribution of every candidate at one layer.

        With all other layers fixed to ``choices``, entry ``a`` is the
        candidate's own time plus the penalties on every incident edge
        — so ``argmin`` is the locally optimal move and differences are
        exact objective deltas.
        """
        costs = self.times[layer].copy()
        for edge_idx, other, is_consumer in self.incident[layer]:
            matrix = self.edge_matrices[edge_idx]
            if is_consumer:
                costs += matrix[int(choices[other]), :]
            else:
                costs += matrix[:, int(choices[other])]
        return costs

    def delta_ms(
        self,
        choices: np.ndarray | Sequence[int],
        layer: int,
        new_choice: int,
    ) -> float:
        """Objective change of flipping one layer to ``new_choice``."""
        old_choice = int(choices[layer])
        delta = self.times[layer][new_choice] - self.times[layer][old_choice]
        for edge_idx, other, is_consumer in self.incident[layer]:
            matrix = self.edge_matrices[edge_idx]
            if is_consumer:
                row = int(choices[other])
                delta += matrix[row, new_choice] - matrix[row, old_choice]
            else:
                col = int(choices[other])
                delta += matrix[new_choice, col] - matrix[old_choice, col]
        return float(delta)

    # -- sampling helpers ----------------------------------------------------

    def sample_batch(
        self, rng: np.random.Generator, episodes: int
    ) -> np.ndarray:
        """``(episodes, L)`` uniformly random choice matrix.

        Row-major generation: the first ``k`` rows are identical for any
        two calls with budgets ``>= k`` and the same generator state, so
        longer campaigns strictly extend shorter ones.
        """
        return rng.integers(
            0, self.num_actions[None, :], size=(episodes, self.num_layers)
        )

    def greedy_choices(self) -> np.ndarray:
        """Per-layer fastest candidate, penalties ignored (Fig. 1 trap)."""
        return np.argmin(self.times_dense, axis=1)


#: Byte alignment of the tensor regions inside a shared segment (one
#: cache line — keeps the float64 blocks aligned for every attacher).
_SHARED_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _SHARED_ALIGN - 1) // _SHARED_ALIGN * _SHARED_ALIGN


_SEGMENT_CLS = None


def _segment_cls():
    """A ``SharedMemory`` subclass whose ``close`` tolerates live
    buffer views.

    An attached engine's numpy views keep the mapping "exported", so
    plain ``mmap.close`` raises ``BufferError`` — including from
    ``SharedMemory.__del__`` at garbage collection, which prints an
    unraisable-exception warning.  The mapping is released at process
    exit regardless, so swallowing the refusal here is the correct
    lifecycle, not a cover-up.
    """
    global _SEGMENT_CLS
    if _SEGMENT_CLS is None:
        from multiprocessing import shared_memory

        class _ForgivingSegment(shared_memory.SharedMemory):
            def close(self):
                try:
                    super().close()
                except BufferError:
                    pass

        _SEGMENT_CLS = _ForgivingSegment
    return _SEGMENT_CLS


class SharedCostTables:
    """A :class:`CostEngine`'s dense tensors in one
    ``multiprocessing.shared_memory`` segment.

    Segment layout: an 8-byte little-endian header length, a UTF-8 JSON
    header (layer names, candidate uids, edges, shapes, offsets), then
    the 64-byte-aligned raw bytes of ``times_dense`` and
    ``edge_penalties`` in C order.  :meth:`create` packs an engine once
    (the owner); :meth:`attach` maps it read-only and :meth:`engine`
    rebuilds a zero-copy engine over the mapped tensors, so every
    attaching process prices bitwise-identically to the original while
    the host holds a single physical copy.

    Lifecycle contract: the **owner** (the process that called
    :meth:`create`) must :meth:`unlink` the segment when the campaign
    or service shuts down — attachment alone must never unlink, or the
    segment would vanish under sibling workers.  :meth:`close` is safe
    to call from anyone and tolerates live views (a worker's engine
    may still reference the buffer at interpreter exit).
    """

    def __init__(self, shm, header: dict, owner: bool) -> None:
        self._shm = shm
        self._header = header
        self._owner = owner
        self._engine: CostEngine | None = None
        self._unlinked = False

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, engine: CostEngine, name: str | None = None) -> "SharedCostTables":
        """Export one engine's dense tensors into a fresh segment."""
        import json
        import struct

        times = np.ascontiguousarray(engine.times_dense, dtype=np.float64)
        penalties = np.ascontiguousarray(
            engine.edge_penalties, dtype=np.float64
        )
        header = {
            "layer_names": engine.layer_names,
            "candidate_uids": engine.candidate_uids,
            "edges": [list(e) for e in engine.edges],
            "times_shape": list(times.shape),
            "edges_shape": list(penalties.shape),
        }
        header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
        times_offset = _aligned(8 + len(header_bytes))
        edges_offset = _aligned(times_offset + times.nbytes)
        header["times_offset"] = times_offset
        header["edges_offset"] = edges_offset
        # Re-encode with the offsets included; offsets only grow the
        # header by a bounded amount, so recompute them to fixpoint.
        while True:
            header_bytes = json.dumps(
                header, separators=(",", ":")
            ).encode("utf-8")
            times_offset = _aligned(8 + len(header_bytes))
            edges_offset = _aligned(times_offset + times.nbytes)
            if (
                header["times_offset"] == times_offset
                and header["edges_offset"] == edges_offset
            ):
                break
            header["times_offset"] = times_offset
            header["edges_offset"] = edges_offset
        total = max(edges_offset + penalties.nbytes, 1)
        shm = _segment_cls()(create=True, size=total, name=name)
        struct.pack_into("<Q", shm.buf, 0, len(header_bytes))
        shm.buf[8 : 8 + len(header_bytes)] = header_bytes
        if times.nbytes:
            np.frombuffer(
                shm.buf, dtype=np.float64, count=times.size, offset=times_offset
            )[:] = times.reshape(-1)
        if penalties.nbytes:
            np.frombuffer(
                shm.buf,
                dtype=np.float64,
                count=penalties.size,
                offset=edges_offset,
            )[:] = penalties.reshape(-1)
        return cls(shm, header, owner=True)

    @classmethod
    def attach(cls, name: str) -> "SharedCostTables":
        """Map an existing segment by name (non-owning)."""
        import json
        import struct

        shm = _segment_cls()(name=name)
        (header_len,) = struct.unpack_from("<Q", shm.buf, 0)
        header = json.loads(bytes(shm.buf[8 : 8 + header_len]).decode("utf-8"))
        return cls(shm, header, owner=False)

    # -- the engine view -----------------------------------------------------

    @property
    def name(self) -> str:
        """The segment name (the handle workers attach by)."""
        return self._shm.name

    def engine(self) -> CostEngine:
        """A zero-copy :class:`CostEngine` over the mapped tensors
        (built once, cached).  The views are marked read-only: the
        tables are shared across processes, and a worker scribbling on
        them would corrupt every sibling's pricing."""
        if self._engine is None:
            header = self._header
            t_shape = tuple(header["times_shape"])
            e_shape = tuple(header["edges_shape"])
            times = np.frombuffer(
                self._shm.buf,
                dtype=np.float64,
                count=int(np.prod(t_shape)) if t_shape else 0,
                offset=header["times_offset"],
            ).reshape(t_shape)
            penalties = np.frombuffer(
                self._shm.buf,
                dtype=np.float64,
                count=int(np.prod(e_shape)) if e_shape else 0,
                offset=header["edges_offset"],
            ).reshape(e_shape)
            times.flags.writeable = False
            penalties.flags.writeable = False
            self._engine = CostEngine(
                layer_names=header["layer_names"],
                candidate_uids=header["candidate_uids"],
                times=None,
                edges=[tuple(e) for e in header["edges"]],
                edge_matrices=None,
                dense_tables=(times, penalties),
            )
        return self._engine

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (best-effort: live numpy views
        over the buffer make ``mmap.close`` refuse, which is fine — the
        mapping is released at process exit regardless)."""
        self._engine = None
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment from the system (owner's duty, idempotent)."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
