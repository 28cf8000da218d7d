"""Noise calibration: when is an index of dispersion *significant*?

The paper leaves the severity thresholds open ("some predefined
thresholds").  A principled way to set them: measurement noise alone
makes the index of dispersion nonzero, so the threshold should sit
above what noise explains.  This module computes, by Monte Carlo, the
null distribution of the Euclidean index for ``P`` processors whose
times are balanced up to a relative jitter ``epsilon``:

    t_p = 1 * (1 + U(-epsilon, +epsilon)),  standardized, ID computed.

From that distribution it derives

* :func:`noise_quantile` — the q-quantile of the null ID (a calibrated
  threshold for :func:`repro.core.ranking.rank_by_threshold`);
* :func:`p_value` — the probability that noise alone produces an ID at
  least as large as observed.

Everything is deterministic given ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DispersionError
from .dispersion import euclidean_distance


@dataclass(frozen=True)
class NoiseModel:
    """Null model: balanced work with relative jitter ``epsilon``."""

    n_processors: int
    epsilon: float = 0.05
    samples: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_processors < 2:
            raise DispersionError("need at least two processors")
        if not 0.0 < self.epsilon < 1.0:
            raise DispersionError("epsilon must lie in (0, 1)")
        if self.samples < 100:
            raise DispersionError("need at least 100 Monte Carlo samples")

    def null_distribution(self) -> np.ndarray:
        """Sampled null distribution of the Euclidean index, sorted."""
        rng = np.random.default_rng(self.seed)
        times = 1.0 + rng.uniform(-self.epsilon, self.epsilon,
                                  (self.samples, self.n_processors))
        shares = times / times.sum(axis=1, keepdims=True)
        return np.sort(euclidean_distance(shares))

    def quantile(self, q: float = 0.95) -> float:
        """The q-quantile of the null index — a calibrated threshold."""
        if not 0.0 < q < 1.0:
            raise DispersionError("q must lie in (0, 1)")
        return float(np.quantile(self.null_distribution(), q))

    def p_value(self, observed: float) -> float:
        """P(noise ID >= observed) with the +1 continuity correction."""
        if observed < 0.0:
            raise DispersionError("observed index must be non-negative")
        null = self.null_distribution()
        exceed = int((null >= observed).sum())
        return (exceed + 1.0) / (null.size + 1.0)

    def is_significant(self, observed: float, q: float = 0.95) -> bool:
        """Whether an observed index exceeds the noise quantile."""
        return observed > self.quantile(q)


def noise_quantile(n_processors: int, epsilon: float = 0.05,
                   q: float = 0.95, samples: int = 2000,
                   seed: int = 0) -> float:
    """Convenience wrapper: calibrated threshold for ``P`` processors."""
    return NoiseModel(n_processors, epsilon, samples, seed).quantile(q)


def p_value(observed: float, n_processors: int, epsilon: float = 0.05,
            samples: int = 2000, seed: int = 0) -> float:
    """Convenience wrapper: noise p-value of an observed index."""
    return NoiseModel(n_processors, epsilon, samples,
                      seed).p_value(observed)
