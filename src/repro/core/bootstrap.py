"""Bootstrap confidence intervals for indices of dispersion.

A single index value carries no notion of uncertainty; when processors
are exchangeable the bootstrap provides one: resample the per-processor
times with replacement, recompute the (standardized) index, and take
percentile bounds over the replicates.  A region whose interval
excludes the balanced value 0 by a wide margin is robustly imbalanced;
one whose interval straddles small values is within resampling noise.

Complements :mod:`repro.core.significance` (which models measurement
jitter under a null); the bootstrap needs no noise model — only the
exchangeability assumption.

Caveat (a property of the percentile bootstrap, not a bug): when the
imbalance is carried by a *single* outlier processor, a resample omits
it with probability ``(1 - 1/P)^P ~ 37%``, so the interval's low end
reaches 0 even for gross imbalance.  For concentrated imbalance use the
noise model of :mod:`repro.core.significance` instead; the bootstrap is
informative for *distributed* imbalance (gradients, blocks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DispersionError
from .dispersion import get_index


@dataclass(frozen=True)
class BootstrapInterval:
    """A percentile bootstrap interval for one index value."""

    observed: float
    low: float
    high: float
    confidence: float
    replicates: int

    @property
    def width(self) -> float:
        return self.high - self.low

    def excludes_balance(self, margin: float = 0.0) -> bool:
        """Whether even the interval's low end stays above ``margin``."""
        return self.low > margin


def bootstrap_interval(values: Sequence[float], index: str = "euclidean",
                       confidence: float = 0.95, replicates: int = 2000,
                       seed: int = 0) -> BootstrapInterval:
    """Percentile bootstrap interval for an index of dispersion.

    ``values`` are raw per-processor times; each replicate resamples
    processors with replacement and standardizes, and one call of the
    index evaluates every replicate.
    Degenerate replicates (all-zero resamples) are redrawn implicitly by
    assigning them the observed value — they carry no information.
    """
    data = np.asarray(values, dtype=float)
    if data.ndim != 1 or data.size < 2:
        raise DispersionError("need at least two processors to bootstrap")
    if np.any(data < 0.0) or not np.all(np.isfinite(data)):
        raise DispersionError("times must be finite and non-negative")
    if data.sum() <= 0.0:
        raise DispersionError("times must have a positive sum")
    if not 0.0 < confidence < 1.0:
        raise DispersionError("confidence must lie in (0, 1)")
    if replicates < 100:
        raise DispersionError("need at least 100 replicates")

    index_function = get_index(index)
    standardized = data / data.sum()
    observed = index_function(standardized)

    rng = np.random.default_rng(seed)
    samples = rng.integers(0, data.size, size=(replicates, data.size))
    resampled = data[samples]
    sums = resampled.sum(axis=1)
    estimates = np.full(replicates, observed)
    informative = sums > 0.0
    estimates[informative] = index_function(
        resampled[informative] / sums[informative, None])
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(estimates, [alpha, 1.0 - alpha])
    return BootstrapInterval(observed=observed, low=float(low),
                             high=float(high), confidence=confidence,
                             replicates=replicates)


def region_intervals(measurements, activity: str,
                     index: str = "euclidean",
                     confidence: float = 0.95,
                     replicates: int = 1000, seed: int = 0):
    """Bootstrap intervals for one activity's ``ID_ij`` across regions.

    Returns ``{region: BootstrapInterval}`` for the regions performing
    the activity.
    """
    j = measurements.activity_index(activity)
    intervals = {}
    for i, region in enumerate(measurements.regions):
        times = measurements.times[i, j, :]
        if times.max() <= 0.0:
            continue
        intervals[region] = bootstrap_interval(
            times, index=index, confidence=confidence,
            replicates=replicates, seed=seed + i)
    return intervals
