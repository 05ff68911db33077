"""Design spaces: which primitives compete on a given platform mode.

Table II reports two modes: **CPU** (single A57 thread; Vanilla, BLAS,
NNPACK, ArmCL, Sparse compete) and **GPGPU** (the CPU libraries plus
cuDNN and cuBLAS, with transfer penalties on every processor switch).
A design space is the set of primitives the agent may pick from; the
worst-case size is ``N_I ^ N_L`` (paper §IV-A, maximum N_I = 13 here).
"""

from __future__ import annotations

import enum

from repro.backends import armcl, blas, cublas, cudnn, nnpack, sparse, vanilla
from repro.backends.primitive import Primitive
from repro.errors import ConfigError, NoPrimitiveError
from repro.hw.platform import Platform
from repro.hw.processor import ProcessorKind
from repro.nn.graph import NetworkGraph
from repro.nn.layers import Layer


class Mode(enum.Enum):
    """Table II's two platform modes."""

    CPU = "cpu"
    GPGPU = "gpgpu"

    def __str__(self) -> str:
        return self.value


#: Library modules contributing to each mode.
_CPU_LIBRARIES = (vanilla, blas, nnpack, armcl, sparse)
_GPU_LIBRARIES = (cudnn, cublas)


def registered_libraries() -> tuple[str, ...]:
    """Library names in registration order (CPU modules, then GPU).

    This is the canonical one-hot ordering for feature maps that
    encode "which library" (``ext/linear_q``, ``core/priors``):
    deriving it here means adding a backend module extends the
    encoding instead of silently misaligning trained weights against
    a stale hardcoded tuple.
    """
    names: list[str] = []
    for module in _CPU_LIBRARIES + _GPU_LIBRARIES:
        for primitive in module.primitives():
            if primitive.library not in names:
                names.append(primitive.library)
    return tuple(names)


class DesignSpace:
    """The searchable set of primitives for one platform mode.

    Guarantees Vanilla coverage: every layer kind of every graph has at
    least one candidate, so any network is schedulable.
    """

    def __init__(self, mode: Mode, platform: Platform,
                 primitives: list[Primitive] | None = None) -> None:
        self.mode = mode
        self.platform = platform
        if primitives is None:
            modules = list(_CPU_LIBRARIES)
            if mode is Mode.GPGPU:
                modules += list(_GPU_LIBRARIES)
            primitives = [p for m in modules for p in m.primitives()]
        available = platform.kinds
        self._primitives = tuple(
            p for p in primitives if p.processor in available
        )
        if mode is Mode.GPGPU and not platform.has(ProcessorKind.GPU):
            raise ConfigError(
                f"GPGPU mode requires a GPU on platform {platform.name}"
            )
        uids = [p.uid for p in self._primitives]
        if len(set(uids)) != len(uids):
            dupes = sorted({u for u in uids if uids.count(u) > 1})
            raise ConfigError(f"duplicate primitive uids: {dupes}")
        self._by_uid = {p.uid: p for p in self._primitives}
        self._by_uid_order = tuple(sorted(self._primitives, key=lambda p: p.uid))

    # -- enumeration -----------------------------------------------------------

    @property
    def primitives(self) -> tuple[Primitive, ...]:
        """Every primitive in this space."""
        return self._primitives

    def primitive(self, uid: str) -> Primitive:
        """Look a primitive up by uid."""
        try:
            return self._by_uid[uid]
        except KeyError:
            raise NoPrimitiveError(f"no primitive {uid!r} in {self.mode} space") from None

    def library_names(self) -> list[str]:
        """Sorted names of all libraries contributing primitives."""
        return sorted({p.library for p in self._primitives})

    def primitives_of_library(self, library: str) -> list[Primitive]:
        """All primitives belonging to one library."""
        out = [p for p in self._primitives if p.library == library]
        if not out:
            raise NoPrimitiveError(
                f"library {library!r} not in {self.mode} space; "
                f"have {self.library_names()}"
            )
        return out

    # -- per-layer candidates -----------------------------------------------------

    def candidates(self, layer: Layer, graph: NetworkGraph) -> list[Primitive]:
        """All primitives able to execute ``layer``, in stable uid order.

        Raises :class:`~repro.errors.NoPrimitiveError` if empty — which
        cannot happen while Vanilla is part of the space.
        """
        out = [p for p in self._by_uid_order if p.supports(layer, graph)]
        if not out:
            raise NoPrimitiveError(
                f"no primitive supports layer {layer.name!r} ({layer.kind}) "
                f"in {self.mode} space"
            )
        return out

    def max_candidates(self, graph: NetworkGraph) -> int:
        """The paper's N_I: the largest per-layer candidate count."""
        return max(len(self.candidates(l, graph)) for l in graph.layers())

    def space_size_log10(self, graph: NetworkGraph) -> float:
        """log10 of the full design-space size (product of candidate counts)."""
        import math

        total = 0.0
        for layer in graph.layers():
            total += math.log10(len(self.candidates(layer, graph)))
        return total

    def __repr__(self) -> str:
        return (
            f"DesignSpace(mode={self.mode}, platform={self.platform.name}, "
            f"primitives={len(self._primitives)})"
        )


def cpu_space(platform: Platform) -> DesignSpace:
    """The CPU-mode design space (Table II, left half)."""
    return DesignSpace(Mode.CPU, platform)


def gpgpu_space(platform: Platform) -> DesignSpace:
    """The GPGPU-mode design space (Table II, right half)."""
    return DesignSpace(Mode.GPGPU, platform)


def design_space(mode: Mode, platform: Platform) -> DesignSpace:
    """Build the design space for ``mode`` on ``platform``."""
    if mode is Mode.CPU:
        return cpu_space(platform)
    if mode is Mode.GPGPU:
        return gpgpu_space(platform)
    raise ConfigError(f"unknown mode {mode!r}")
