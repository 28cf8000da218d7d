"""Indices of dispersion (step 2 of the methodology).

Majorization theory measures how spread out a data set is via *indices of
dispersion*.  The paper lists several candidates — variance, coefficient
of variation, Euclidean distance, mean absolute deviation, maximum, sum —
and selects the **Euclidean distance between each element and the mean**
because it measures spread with respect to the perfectly balanced
condition where every processor spends the same time.

This module implements that index plus the rest of the family, behind a
common registry so analyses can be re-run with a different index (used by
the dispersion-choice ablation).  Every index is one function over the
last axis of its input: a data set (1-d) gives a float, and a batch (2-d,
one data set per row) gives one value per row, so the batch engine
(:mod:`repro.core.batch`) evaluates every cell of a tensor with one call.
Every index here is *Schur-convex* on standardized data (constant-sum
vectors): if ``x`` majorizes ``y`` then ``index(x) >= index(y)``, which
is the property that makes it a valid measure of spread under
majorization theory.  The test suite checks this property with
hypothesis.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Sequence, Union

import numpy as np

from ..errors import DispersionError

#: An index maps a data set to a float, or an (M, P) batch of data sets
#: (one per row) to the (M,) vector of their values.
IndexFunction = Callable[[np.ndarray], Union[float, np.ndarray]]

_REGISTRY: Dict[str, IndexFunction] = {}


def _validate(values: Sequence[float]) -> np.ndarray:
    """The data set or batch as a float array, rejecting what no index
    measures: a shape other than 1-d or 2-d, empty data sets, non-finite
    values and all-zero data sets."""
    data = np.asarray(values, dtype=float)
    if data.ndim not in (1, 2):
        raise DispersionError(
            "expected a 1-d data set or a 2-d batch of data sets, "
            f"got shape {data.shape}")
    if data.shape[-1] == 0:
        raise DispersionError("cannot measure the dispersion of an empty data set")
    if not np.all(np.isfinite(data)):
        raise DispersionError("data set contains non-finite values")
    if not np.all(data.any(axis=-1)):
        # A not-performed "dash" cell: every index rejects it rather
        # than score it (a 0.0 would make it look perfectly balanced);
        # the matrix paths mask such cells out as nan.
        raise DispersionError(
            "data set is all zeros (a not-performed dash cell); "
            "dispersion is undefined — mask such cells out instead")
    return data


def _last_axis(function: IndexFunction) -> IndexFunction:
    """``function`` over the last axis of validated input: a float for a
    data set, an array for a batch.  The unvalidated ``function`` stays
    reachable as ``__wrapped__``."""

    @functools.wraps(function)
    def index(values: Sequence[float]) -> Union[float, np.ndarray]:
        data = _validate(values)
        result = function(data)
        return float(result) if data.ndim == 1 else result

    return index


def register_index(name: str) -> Callable[[IndexFunction], IndexFunction]:
    """Decorator registering an index of dispersion under ``name``.

    The decorated function takes a validated data set (1-d) or batch
    (2-d) and reduces its last axis.  The decorator returns it wrapped
    in input validation; the batch engine calls the unwrapped function
    (``__wrapped__``) on its packed cells, which are valid by
    construction.
    """

    def decorator(function: IndexFunction) -> IndexFunction:
        if name in _REGISTRY:
            raise DispersionError(f"index {name!r} already registered")
        index = _last_axis(function)
        _REGISTRY[name] = index
        return index

    return decorator


def available_indices() -> tuple:
    """Names of all registered indices of dispersion."""
    return tuple(sorted(_REGISTRY))


def get_index(name: str) -> IndexFunction:
    """Look up a registered index of dispersion by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise DispersionError(
            f"unknown index of dispersion {name!r}; "
            f"available: {available_indices()}") from None


def _dot(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Dot product of matching data sets along the last axis.

    einsum sums each data set of a batch whole, but a lone data set in
    pieces of numpy's buffer (8192 elements), which rounds differently.
    So a lone data set is summed as a batch of two copies of itself:
    its value does not depend on the data sets it is called with.
    """
    if left.ndim > 1 and len(left) > 1:
        return np.einsum("...p,...p->...", left, right)
    return np.einsum("...p,...p->...", np.stack((left, left)),
                     np.stack((right, right)))[0]


def _deviations(data: np.ndarray) -> np.ndarray:
    """A fresh array of each element's deviation from its data set's mean."""
    return data - data.mean(axis=-1, keepdims=True)


def _squared_deviations(data: np.ndarray) -> np.ndarray:
    """Each data set's sum of squared deviations from its mean."""
    deviations = _deviations(data)
    return _dot(deviations, deviations)


@register_index("euclidean")
def euclidean_distance(data: np.ndarray) -> np.ndarray:
    """Euclidean distance between the elements and their mean.

    This is the paper's index: ``sqrt(sum_p (x_p - mean(x))^2)``.  On
    standardized data it is the distance from the balanced point ``1/P``.
    """
    return np.sqrt(_squared_deviations(data))


@register_index("variance")
def variance(data: np.ndarray) -> np.ndarray:
    """Population variance of the data set."""
    return _squared_deviations(data) / data.shape[-1]


@register_index("cv")
def coefficient_of_variation(data: np.ndarray) -> np.ndarray:
    """Standard deviation divided by the mean (undefined for zero mean)."""
    means = data.mean(axis=-1)
    if np.any(means == 0.0):
        raise DispersionError("coefficient of variation undefined for zero mean")
    return np.sqrt(_squared_deviations(data) / data.shape[-1]) / means


@register_index("mad")
def mean_absolute_deviation(data: np.ndarray) -> np.ndarray:
    """Mean absolute deviation from the mean."""
    deviations = _deviations(data)
    return np.abs(deviations, out=deviations).mean(axis=-1)


@register_index("max")
def maximum(data: np.ndarray) -> np.ndarray:
    """The largest element of the data set."""
    return data.max(axis=-1)


@register_index("range")
def value_range(data: np.ndarray) -> np.ndarray:
    """Difference between the largest and smallest elements."""
    return data.max(axis=-1) - data.min(axis=-1)


@register_index("sum")
def total(data: np.ndarray) -> np.ndarray:
    """Sum of the elements (trivially constant on standardized data)."""
    return data.sum(axis=-1)


def _reject_negative(data: np.ndarray, what: str) -> None:
    if np.any(data < 0.0):
        raise DispersionError(f"{what} requires non-negative data")


@register_index("gini")
def gini_coefficient(data: np.ndarray) -> np.ndarray:
    """Gini coefficient: mean absolute difference over twice the mean.

    A classical inequality index; zero for balanced data, approaching
    ``1 - 1/n`` when one element carries everything.  Requires
    non-negative data; a valid data set then has a positive sum.
    """
    _reject_negative(data, "Gini coefficient")
    n = data.shape[-1]
    # Not a BLAS matrix-vector product, which rounds a row differently
    # with the rows around it in the call.
    ranked = _dot(np.sort(data, axis=-1),
                  np.broadcast_to(np.arange(1.0, n + 1.0), data.shape))
    return 2.0 * ranked / (n * data.sum(axis=-1)) - (n + 1.0) / n


@register_index("theil")
def theil_index(data: np.ndarray) -> np.ndarray:
    """Theil entropy index of inequality (zero iff perfectly balanced)."""
    _reject_negative(data, "Theil index")
    shares = data / data.mean(axis=-1, keepdims=True)
    # 0 * ln 0 counts as 0: the log is taken only where a share is
    # positive and left at 0 elsewhere.
    logs = np.log(shares, out=np.zeros_like(shares), where=shares > 0.0)
    return _dot(shares, logs) / data.shape[-1]


@_last_axis
def imbalance_time(data: np.ndarray) -> np.ndarray:
    """Absolute imbalance time: ``max(x) - mean(x)``.

    Not an index of dispersion in the paper's standardized sense (it is
    not scale-free) but a widely used absolute companion metric: the time
    the slowest processor spends beyond the average, i.e. the potential
    saving from perfect balancing.
    """
    return data.max(axis=-1) - data.mean(axis=-1)
