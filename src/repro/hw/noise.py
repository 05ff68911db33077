"""Measurement noise.

Real latency measurements jitter with cache state, DVFS and OS scheduling.
We model a measurement as the true model time scaled by a log-normal
factor — always positive, right-skewed like real timing distributions.
The profiler averages 50 samples per layer, exactly as the paper does
(§V-A footnote), which shrinks the error of LUT entries to ~sigma/sqrt(50).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import PlatformError


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative log-normal measurement noise.

    ``sigma`` is the standard deviation of the underlying normal; 0.03
    yields ~3 % timing jitter, typical of a warmed-up embedded board.
    ``sigma = 0`` makes measurements exact (useful in tests).
    """

    sigma: float = 0.03

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise PlatformError("noise sigma must be >= 0")

    def sample(self, true_ms: float, rng: np.random.Generator) -> float:
        """One noisy measurement of a true latency."""
        if true_ms < 0:
            raise PlatformError("true_ms must be >= 0")
        if self.sigma == 0.0:
            return true_ms
        # Mean-one lognormal: exp(N(-sigma^2/2, sigma)).
        factor = float(np.exp(rng.normal(-0.5 * self.sigma**2, self.sigma)))
        return true_ms * factor

    def sample_means(
        self,
        true_ms: Sequence[float] | np.ndarray,
        rng: np.random.Generator,
        repeats: int,
    ) -> np.ndarray:
        """Mean of ``repeats`` noisy measurements of each true latency.

        The noise is drawn as one ``(n, repeats)`` block: measurement
        ``i`` consumes the next ``repeats`` normals in order, so the
        means and the generator's final state are the same bits however
        the measurements are grouped into blocks.
        """
        if repeats < 1:
            raise PlatformError("repeats must be >= 1")
        true = np.asarray(true_ms, dtype=np.float64)
        if self.sigma == 0.0 or not true.size:
            return true
        normals = rng.normal(
            -0.5 * self.sigma**2, self.sigma, size=(true.size, repeats)
        )
        return true * np.exp(normals).mean(axis=1)

    def sample_mean(
        self, true_ms: float, rng: np.random.Generator, repeats: int
    ) -> float:
        """Mean of ``repeats`` noisy measurements (the paper uses 50):
        the one-measurement case of :meth:`sample_means`."""
        return float(self.sample_means([true_ms], rng, repeats)[0])
