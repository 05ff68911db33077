"""Compatibility-layer profiling (paper Fig. 3, §V-A).

"Once all primitive types have been benchmarked, we profile the
compatibility layers for layout transformation and data transfers
between different processors.  A single inference is performed to
benchmark all possible compatibility layers between each consecutive
layer of the neural network.  Exceptions and branches are handled."

For every edge of the graph (branches simply contribute several edges),
we measure the cost of (a) converting the producer's output between
layouts on each available processor and (b) copying it across the
CPU<->GPU boundary.  That is all the search needs to price any primitive
pairing on any edge.
"""

from __future__ import annotations

import numpy as np

from repro.backends.layout import conversion_ms
from repro.hw.platform import Platform
from repro.hw.processor import ProcessorKind
from repro.nn.graph import NetworkGraph


def profile_compatibility(
    graph: NetworkGraph,
    platform: Platform,
    rng: np.random.Generator | None = None,
    repeats: int = 50,
) -> tuple[
    dict[tuple[str, str], dict[ProcessorKind, float]],
    dict[tuple[str, str], float],
]:
    """Measure conversion and transfer costs for every graph edge.

    Returns ``(conversion_ms, transfer_ms)`` keyed by edge.  Conversion
    entries exist for every available processor; transfer entries exist
    only when the platform has a GPU.  With ``rng`` set, measurements are
    noisy means of ``repeats`` samples, like any other profiled quantity.
    """
    has_gpu = platform.has(ProcessorKind.GPU)
    edges = graph.edges()
    # Per edge: one conversion per processor, then the transfer.
    true_ms: list[float] = []
    for producer, _consumer in edges:
        tensor = graph.output_shape(producer)
        true_ms += [conversion_ms(tensor, proc) for proc in platform.processors]
        if has_gpu:
            true_ms.append(platform.transfer_ms(tensor.nbytes))
    measured = np.asarray(true_ms, dtype=np.float64)
    if rng is not None:
        # Free conversions are exact; the rest share one block of draws.
        paid = measured != 0.0
        measured[paid] = platform.noise.sample_means(measured[paid], rng, repeats)
    values = iter(measured.tolist())
    conversions: dict[tuple[str, str], dict[ProcessorKind, float]] = {}
    transfers: dict[tuple[str, str], float] = {}
    for edge in edges:
        conversions[edge] = {proc.kind: next(values) for proc in platform.processors}
        if has_gpu:
            transfers[edge] = next(values)
    return conversions, transfers
