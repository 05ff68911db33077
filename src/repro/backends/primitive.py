"""The primitive abstraction.

A primitive is one concrete way to execute one layer kind: a (library,
algorithm, implementation, BLAS backend) tuple bound to a processor and a
layout — exactly the state parameters of the paper's Table I.  Libraries
instantiate subclasses; the engine and the search only ever use this
interface.
"""

from __future__ import annotations

import abc
import functools

from repro.backends.layout import Layout
from repro.errors import UnsupportedLayerError
from repro.hw.platform import Platform
from repro.hw.processor import ProcessorKind, ProcessorModel
from repro.nn.graph import NetworkGraph
from repro.nn.layers import Layer


class Primitive(abc.ABC):
    """One executable implementation of a family of layer kinds.

    Subclasses set the identification attributes and implement
    :meth:`supports` / :meth:`_model_ms`.  Instances are stateless and
    shared; identity is the :attr:`uid`.
    """

    #: Library name (paper Table I "Acceleration Library").
    library: str = "?"
    #: Routine type (paper Table I "Algorithm"), e.g. "winograd", "gemm".
    algorithm: str = "?"
    #: Sub-routine / lowering method (paper Table I "Algorithm impl").
    impl: str = ""
    #: BLAS backend name for BLAS-backed primitives (paper Table I).
    blas: str | None = None
    #: Processor this primitive executes on.
    processor: ProcessorKind = ProcessorKind.CPU
    #: Layout consumed and produced.
    layout: Layout = Layout.NCHW

    @functools.cached_property
    def uid(self) -> str:
        """Stable unique identifier, e.g. ``"blas.gemm.im2col@openblas"``
        (computed once per instance)."""
        parts = [self.library, self.algorithm]
        if self.impl:
            parts.append(self.impl)
        uid = ".".join(parts)
        if self.blas:
            uid += f"@{self.blas}"
        return uid

    # -- coverage -------------------------------------------------------------

    @abc.abstractmethod
    def supports(self, layer: Layer, graph: NetworkGraph) -> bool:
        """Whether this primitive can execute ``layer`` of ``graph``."""

    # -- cost ----------------------------------------------------------------

    @abc.abstractmethod
    def _model_ms(
        self, layer: Layer, graph: NetworkGraph, proc: ProcessorModel
    ) -> float:
        """Noiseless model time on ``proc``; coverage already checked."""

    def estimate_ms(self, layer: Layer, graph: NetworkGraph, platform: Platform) -> float:
        """Noiseless execution time of ``layer`` on ``platform``.

        Raises :class:`~repro.errors.UnsupportedLayerError` outside this
        primitive's coverage, and :class:`~repro.errors.PlatformError` if
        the platform lacks the required processor.
        """
        if not self.supports(layer, graph):
            raise UnsupportedLayerError(
                f"{self.uid} does not support layer {layer.name!r} ({layer.kind})"
            )
        proc = platform.processor(self.processor)
        return self._model_ms(layer, graph, proc)

    # -- niceties --------------------------------------------------------------

    def describe(self) -> str:
        """One-line description for reports."""
        blas = f" (BLAS: {self.blas})" if self.blas else ""
        return f"{self.uid} [{self.processor}/{self.layout}]{blas}"

    def __repr__(self) -> str:
        return f"<Primitive {self.uid}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Primitive) and self.uid == other.uid

    def __hash__(self) -> int:
        return hash(self.uid)
