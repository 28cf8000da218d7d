"""Standardization of wall clock times (step 1 of the methodology).

The indices of dispersion must measure *relative* spread, so the paper
first standardizes each data set by dividing every element by the sum of
the data set — the standardized values sum to one and the perfectly
balanced condition becomes the uniform vector ``1/n``.

Two standardizations of the measurement tensor are used:

* :func:`standardize_over_processors` — for the activity and code-region
  views: each ``(region, activity)`` slice is divided by its sum across
  processors.
* :func:`standardize_over_activities` — for the processor view: each
  ``(region, processor)`` slice is divided by the total time that
  processor spent in the region.

Both leave not-performed slices (all zeros) as zeros rather than raising,
because the paper's data legitimately contains regions that skip some
activities; :func:`standardize` on a single vector is stricter.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import StandardizationError
from .measurements import MeasurementSet


def standardize(values: Sequence[float]) -> np.ndarray:
    """Standardize a single data set so that its elements sum to one.

    Raises :class:`StandardizationError` for empty, negative, non-finite
    or all-zero input — a data set with no time in it has no relative
    spread to speak of.
    """
    data = np.asarray(values, dtype=float)
    if data.ndim != 1:
        raise StandardizationError(f"expected a 1-d data set, got shape {data.shape}")
    if data.size == 0:
        raise StandardizationError("cannot standardize an empty data set")
    if not np.all(np.isfinite(data)):
        raise StandardizationError("data set contains non-finite values")
    if np.any(data < 0.0):
        raise StandardizationError("data set contains negative values")
    total = data.sum()
    if total <= 0.0:
        raise StandardizationError("data set sums to zero; nothing to standardize")
    return data / total


def balanced_point(n: int) -> np.ndarray:
    """The standardized vector of a perfectly balanced data set: ``1/n``."""
    if n <= 0:
        raise StandardizationError("need at least one element")
    return np.full(n, 1.0 / n)


def standardize_along(values: np.ndarray, axis: int = -1,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """Each slice of ``values`` along ``axis`` divided by its own sum,
    into ``out``: a new array by default, where slices that sum to zero
    stay zero, or ``values`` itself to divide in place (a slice of
    non-negative times that sums to zero is all zeros already).

    The one row division of the analysis: the whole-tensor
    standardizations below, the batch engine's region blocks and each
    time window's packed rows all call it, so a value is the same bits
    whichever of them computed it.
    """
    sums = values.sum(axis=axis, keepdims=True)
    positive = sums > 0.0
    if positive.all():
        return np.divide(values, sums, out=out)
    if out is None:
        out = np.zeros_like(values)
    return np.divide(values, sums, out=out, where=positive)


def standardize_over_processors(measurements: MeasurementSet) -> np.ndarray:
    """Standardize ``t_ijp`` across processors.

    Returns an (N, K, P) array where each performed ``(i, j)`` slice sums
    to one over *p*; not-performed slices are all zeros.
    """
    return standardize_along(measurements.times, axis=2)


def standardize_over_activities(measurements: MeasurementSet) -> np.ndarray:
    """Standardize ``t_ijp`` across the activities of each processor.

    Returns an (N, K, P) array where, for each region *i* and processor
    *p* with any recorded time, the slice over *j* sums to one.
    """
    return standardize_along(measurements.times, axis=1)


def standardize_region_profiles(measurements: MeasurementSet) -> np.ndarray:
    """Standardize the per-region activity breakdown ``t_ij`` over *j*.

    Returns an (N, K) array of activity fractions per region — the
    representation the paper clusters.
    """
    return standardize_along(measurements.region_activity_times, axis=1)
