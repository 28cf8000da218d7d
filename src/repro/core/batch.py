"""Vectorized batch analysis engine.

The scalar pipeline in :mod:`repro.core.views` evaluates each index of
dispersion one ``(region, activity)`` cell at a time — ``N * K`` Python
calls per index, each paying validation and dispatch overhead.  That is
fine for the paper's 7x4 example but dominates the cost of large
``N x K x P`` sweeps (parameter studies, trace replays, per-hypothesis
re-analysis).

This module evaluates the same mathematics in single NumPy passes over
the ``(N, K, P)`` tensor:

* :class:`BatchAnalysis` — packs the standardized slices of every
  *performed* cell into one ``(M, P)`` matrix and applies *batch
  kernels* (vectorized row-wise implementations of the registered
  indices of dispersion) to all cells at once.  Not-performed ("dash")
  cells are masked out and reported as ``nan``, exactly like the scalar
  path.
* :class:`AnalysisSession` — a memoization layer on top of one
  measurement set: views, ranking, efficiency, diagnosis and report
  rendering all reuse the cached standardized tensors and dispersion
  matrices instead of recomputing slices.
* :func:`scalar_dispersion_matrix` — the original per-cell loop, kept
  as the reference implementation the differential test suite holds
  the engine against, for equal results and a fivefold speed-up.

Batch kernels mirror the scalar registry name for name; an index
registered only with :func:`repro.core.dispersion.register_index` (no
batch kernel) transparently falls back to the scalar loop, so custom
indices keep working behind the same API.  The differential tests
assert that kernel and scalar results agree within ``1e-12`` for every
registered index, including degenerate inputs (single processor,
all-equal rows, dash cells).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..errors import DispersionError, RankingError
from ..obs import spans as obspans
from .dispersion import _REGISTRY as _SCALAR_REGISTRY
from .dispersion import get_index
from .measurements import MeasurementSet
from .standardize import (standardize_over_activities,
                          standardize_over_processors)

#: A batch kernel maps an (M, P) matrix of data sets (one per row) to
#: the (M,) vector of index values.
BatchKernel = Callable[[np.ndarray], np.ndarray]

_BATCH_REGISTRY: Dict[str, BatchKernel] = {}


def register_batch_kernel(name: str) -> Callable[[BatchKernel], BatchKernel]:
    """Decorator registering a vectorized kernel for the index ``name``.

    The kernel must agree with the scalar index of the same name (the
    differential suite enforces this for the built-ins).
    """

    def decorator(kernel: BatchKernel) -> BatchKernel:
        if name in _BATCH_REGISTRY:
            raise DispersionError(f"batch kernel {name!r} already registered")
        _BATCH_REGISTRY[name] = kernel
        return kernel

    return decorator


def available_batch_kernels() -> tuple:
    """Names of all indices with a vectorized batch kernel."""
    return tuple(sorted(_BATCH_REGISTRY))


def get_batch_kernel(name: str) -> BatchKernel:
    """Look up a batch kernel by name; the result validates its input."""
    try:
        kernel = _BATCH_REGISTRY[name]
    except KeyError:
        raise DispersionError(
            f"no batch kernel for index {name!r}; "
            f"available: {available_batch_kernels()}") from None

    def checked(matrix: np.ndarray) -> np.ndarray:
        return kernel(_validate_matrix(matrix))

    return checked


def _validate_matrix(matrix: np.ndarray) -> np.ndarray:
    """Row-wise analogue of :func:`repro.core.dispersion._validate`."""
    data = np.asarray(matrix, dtype=float)
    if data.ndim != 2:
        raise DispersionError(
            f"expected a 2-d batch of data sets, got shape {data.shape}")
    if data.shape[1] == 0:
        raise DispersionError("cannot measure the dispersion of empty data sets")
    if not np.all(np.isfinite(data)):
        raise DispersionError("batch contains non-finite values")
    if data.shape[0] and not np.all(data.any(axis=1)):
        raise DispersionError(
            "batch contains all-zero data sets (not-performed dash cells); "
            "mask them out instead of measuring their dispersion")
    return data


def _reject_negative(matrix: np.ndarray, what: str) -> None:
    if np.any(matrix < 0.0):
        raise DispersionError(f"{what} requires non-negative data")


@register_batch_kernel("euclidean")
def euclidean_kernel(matrix: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distance from the mean (the paper's index)."""
    deviations = matrix - matrix.mean(axis=1, keepdims=True)
    return np.sqrt((deviations ** 2).sum(axis=1))


@register_batch_kernel("variance")
def variance_kernel(matrix: np.ndarray) -> np.ndarray:
    """Row-wise population variance."""
    return matrix.var(axis=1)


@register_batch_kernel("cv")
def cv_kernel(matrix: np.ndarray) -> np.ndarray:
    """Row-wise coefficient of variation (undefined for zero means)."""
    means = matrix.mean(axis=1)
    if np.any(means == 0.0):
        raise DispersionError("coefficient of variation undefined for zero mean")
    return matrix.std(axis=1) / means


@register_batch_kernel("mad")
def mad_kernel(matrix: np.ndarray) -> np.ndarray:
    """Row-wise mean absolute deviation from the mean."""
    return np.abs(matrix - matrix.mean(axis=1, keepdims=True)).mean(axis=1)


@register_batch_kernel("max")
def max_kernel(matrix: np.ndarray) -> np.ndarray:
    """Row-wise maximum."""
    return matrix.max(axis=1)


@register_batch_kernel("range")
def range_kernel(matrix: np.ndarray) -> np.ndarray:
    """Row-wise range (max minus min)."""
    return matrix.max(axis=1) - matrix.min(axis=1)


@register_batch_kernel("sum")
def sum_kernel(matrix: np.ndarray) -> np.ndarray:
    """Row-wise sum."""
    return matrix.sum(axis=1)


@register_batch_kernel("gini")
def gini_kernel(matrix: np.ndarray) -> np.ndarray:
    """Row-wise Gini coefficient (non-negative rows with positive sums)."""
    _reject_negative(matrix, "Gini coefficient")
    totals = matrix.sum(axis=1)
    # Non-negative rows that are not all zero (dash cells are rejected
    # by validation) always have a positive sum.
    sorted_rows = np.sort(matrix, axis=1)
    n = matrix.shape[1]
    ranks = np.arange(1, n + 1)
    return (2.0 * (ranks * sorted_rows).sum(axis=1) / (n * totals)) \
        - (n + 1.0) / n


@register_batch_kernel("theil")
def theil_kernel(matrix: np.ndarray) -> np.ndarray:
    """Row-wise Theil entropy index (non-negative rows)."""
    _reject_negative(matrix, "Theil index")
    means = matrix.mean(axis=1, keepdims=True)
    shares = matrix / means
    logs = np.log(np.where(shares > 0.0, shares, 1.0))
    return (shares * logs).sum(axis=1) / matrix.shape[1]


def imbalance_time_kernel(matrix: np.ndarray) -> np.ndarray:
    """Row-wise absolute imbalance time ``max - mean``.

    Companion metric, not a registered index of dispersion (it is not
    scale-free); apply it to *raw* times, not standardized slices.
    """
    matrix = _validate_matrix(matrix)
    return matrix.max(axis=1) - matrix.mean(axis=1)


def scalar_dispersion_matrix(measurements: MeasurementSet,
                             index: str = "euclidean") -> np.ndarray:
    """Reference implementation: the per-cell scalar loop.

    Exactly the pre-batch ``views.dispersion_matrix``; the differential
    test suite compares the vectorized engine against it, for results
    and for speed.
    """
    index_function = get_index(index)
    standardized = standardize_over_processors(measurements)
    performed = measurements.performed
    n_regions, n_activities = performed.shape
    matrix = np.full((n_regions, n_activities), np.nan)
    for i in range(n_regions):
        for j in range(n_activities):
            if performed[i, j]:
                matrix[i, j] = index_function(standardized[i, j, :])
    return matrix


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class BatchAnalysis:
    """All registered indices for all cells, in single NumPy passes.

    Standardized tensors, the packed cell matrix and every computed
    index matrix are cached; cached arrays are returned read-only (copy
    before mutating).
    """

    def __init__(self, measurements: MeasurementSet):
        self.measurements = measurements
        self._standardized_p: Optional[np.ndarray] = None
        self._standardized_a: Optional[np.ndarray] = None
        self._cells: Optional[np.ndarray] = None
        self._raw_cells: Optional[np.ndarray] = None
        self._matrices: Dict[str, np.ndarray] = {}
        self._processor_dispersion: Optional[np.ndarray] = None
        self._imbalance_time: Optional[np.ndarray] = None
        self._activity_totals: Optional[np.ndarray] = None
        self._performed: Optional[np.ndarray] = None
        self._moments: Optional[Tuple[np.ndarray, np.ndarray,
                                      np.ndarray]] = None

    # ------------------------------------------------------------------
    # Cached ingredients
    # ------------------------------------------------------------------
    @property
    def performed(self) -> np.ndarray:
        """(N, K) mask of performed cells (cached — the property on the
        measurement set recomputes a full-tensor ``max`` per access)."""
        if self._performed is None:
            self._performed = _readonly(self.measurements.performed)
        return self._performed

    @property
    def standardized_over_processors(self) -> np.ndarray:
        """Cached ``t^_ijp`` standardized across processors."""
        if self._standardized_p is None:
            self._standardized_p = _readonly(
                standardize_over_processors(self.measurements))
        return self._standardized_p

    @property
    def standardized_over_activities(self) -> np.ndarray:
        """Cached ``t^_ijp`` standardized across activities."""
        if self._standardized_a is None:
            self._standardized_a = _readonly(
                standardize_over_activities(self.measurements))
        return self._standardized_a

    @property
    def cells(self) -> np.ndarray:
        """(M, P) standardized slices of the performed cells, packed in
        row-major (region, activity) order.

        Packed straight from the raw tensor and standardized row-wise —
        dividing each performed row by its own sum is bit-identical to
        masking the full-tensor standardization, without touching the
        not-performed cells.
        """
        if self._cells is None:
            if self._standardized_p is not None:
                packed = self._standardized_p[self.performed].copy()
            else:
                packed = self.measurements.times[self.performed]
                if packed.size:
                    packed /= packed.sum(axis=1, keepdims=True)
            self._cells = _readonly(packed)
        return self._cells

    # ------------------------------------------------------------------
    # Index matrices
    # ------------------------------------------------------------------
    def _scatter(self, values: np.ndarray) -> np.ndarray:
        """Unpack (M,) cell values into an (N, K) matrix, nan elsewhere."""
        matrix = np.full(self.performed.shape, np.nan)
        matrix[self.performed] = values
        return matrix

    def _cell_moments(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(means, deviations, sum_of_squared_deviations)`` of
        the packed cells — one shared pass feeds the four moment-based
        indices (euclidean, variance, cv, mad)."""
        if self._moments is None:
            cells = self.cells
            means = cells.mean(axis=1)
            deviations = cells - means[:, None]
            self._moments = (means, deviations,
                             (deviations ** 2).sum(axis=1))
        return self._moments

    def _moment_values(self, index: str) -> Optional[np.ndarray]:
        """Fast path for the moment-based indices; agrees with the
        standalone kernels (the differential suite covers both)."""
        if index not in ("euclidean", "variance", "cv", "mad"):
            return None
        means, deviations, sum_sq = self._cell_moments()
        n = self.cells.shape[1]
        if index == "euclidean":
            return np.sqrt(sum_sq)
        if index == "variance":
            return sum_sq / n
        if index == "cv":
            if np.any(means == 0.0):
                raise DispersionError(
                    "coefficient of variation undefined for zero mean")
            return np.sqrt(sum_sq / n) / means
        return np.abs(deviations).mean(axis=1)

    def matrix(self, index: str = "euclidean") -> np.ndarray:
        """The (N, K) matrix of ``ID_ij`` under the given index.

        Uses the vectorized kernel when one is registered, the scalar
        loop otherwise (custom indices).  The result is cached and
        read-only.
        """
        if index not in self._matrices:
            values = self._moment_values(index)
            if values is not None:
                matrix = self._scatter(values)
            else:
                kernel = _BATCH_REGISTRY.get(index)
                if kernel is not None:
                    matrix = self._scatter(kernel(self.cells))
                else:
                    matrix = scalar_dispersion_matrix(self.measurements,
                                                      index)
            self._matrices[index] = _readonly(matrix)
        return self._matrices[index]

    def matrices(self, names: Optional[Iterable[str]] = None
                 ) -> Dict[str, np.ndarray]:
        """``{index: (N, K) matrix}`` for the given indices (default:
        every registered index), sharing one packed pass."""
        from .dispersion import available_indices
        if names is None:
            names = available_indices()
        return {name: self.matrix(name) for name in names}

    def imbalance_time_matrix(self) -> np.ndarray:
        """(N, K) absolute imbalance times ``max_p - mean_p`` of the raw
        cell times (nan for dash cells)."""
        if self._imbalance_time is None:
            raw = self.measurements.times[self.performed]
            self._imbalance_time = _readonly(
                self._scatter(imbalance_time_kernel(raw)))
        return self._imbalance_time

    def processor_dispersion(self) -> np.ndarray:
        """(N, P) processor-view indices ``ID_P_ip``, vectorized.

        Activities a region does not perform contribute exactly zero to
        the profile distance (their standardized slice is identically
        zero), so the masked per-region loop and this full-tensor pass
        agree.
        """
        if self._processor_dispersion is None:
            standardized = self.standardized_over_activities
            deviations = standardized - standardized.mean(axis=2,
                                                          keepdims=True)
            self._processor_dispersion = _readonly(
                np.sqrt((deviations ** 2).sum(axis=1)))
        return self._processor_dispersion

    def processor_activity_totals(self) -> np.ndarray:
        """(K, P) total time per activity and processor (cached; the
        efficiency factorization reads its useful-work row from here)."""
        if self._activity_totals is None:
            self._activity_totals = _readonly(
                self.measurements.times.sum(axis=0))
        return self._activity_totals


def batch_dispersion_matrix(measurements: MeasurementSet,
                            index: str = "euclidean") -> np.ndarray:
    """One-shot vectorized ``ID_ij`` matrix (fresh, writable array)."""
    return BatchAnalysis(measurements).matrix(index).copy()


def _masked_weighted_mean(matrix: np.ndarray, weights: np.ndarray,
                          mask: np.ndarray, axis: int) -> np.ndarray:
    """Weighted average over ``axis`` ignoring unmasked entries; nan
    where the masked weights sum to zero (the vectorized analogue of
    ``views._weighted_average``)."""
    effective = np.where(mask, weights, 0.0)
    weight_sums = effective.sum(axis=axis)
    numerator = (np.where(mask, matrix, 0.0) * effective).sum(axis=axis)
    safe = np.where(weight_sums > 0.0, weight_sums, 1.0)
    return np.where(weight_sums > 0.0, numerator / safe, np.nan)


class WindowedBatch:
    """Per-window dispersion over a sequence of measurement sets.

    The W-window analogue of :class:`BatchAnalysis`: given measurement
    sets sharing one ``(regions, activities, P)`` layout — e.g. the
    output of :func:`repro.instrument.window_profiles` — each index is
    evaluated window by window, by a :class:`BatchAnalysis` of that
    window, and the results are stacked along a leading window axis.
    The windows' tensors are never stacked or copied: only one window's
    temporaries (packed cells, standardized slices) are alive at a
    time.  Every value is exactly what :class:`BatchAnalysis` gives for
    its window.
    """

    def __init__(self, measurement_sets: Sequence[MeasurementSet]):
        sets = tuple(measurement_sets)
        if not sets:
            raise DispersionError("need at least one measurement set")
        first = sets[0]
        for ms in sets[1:]:
            if (ms.regions != first.regions
                    or ms.activities != first.activities
                    or ms.n_processors != first.n_processors):
                raise DispersionError(
                    "all windows must share the same regions, activities "
                    "and processor count")
        self.measurement_sets = sets
        #: (W, N, K) performed masks.
        self.performed = _readonly(np.stack([ms.performed for ms in sets]))
        #: (W, N, K) per-window ``t_ij`` under each set's aggregation.
        self.region_activity_times = _readonly(
            np.stack([ms.region_activity_times for ms in sets]))
        self._matrices: Dict[str, np.ndarray] = {}
        self._processor_dispersion: Optional[np.ndarray] = None

    @property
    def n_windows(self) -> int:
        return len(self.measurement_sets)

    def _per_window(self, evaluate: Callable[[BatchAnalysis], np.ndarray]
                    ) -> np.ndarray:
        """``evaluate`` on each window's engine, stacked (read-only);
        an engine and its caches are dropped before the next is built."""
        return _readonly(np.stack([evaluate(BatchAnalysis(ms))
                                   for ms in self.measurement_sets]))

    def matrix(self, index: str = "euclidean") -> np.ndarray:
        """The (W, N, K) stack of ``ID_ij`` matrices under ``index``.

        Vectorized kernel when registered, scalar fallback for custom
        indices; cached and read-only.
        """
        if index not in self._matrices:
            self._matrices[index] = self._per_window(
                lambda batch: batch.matrix(index))
        return self._matrices[index]

    def region_index(self, index: str = "euclidean",
                     weighting: str = "time") -> np.ndarray:
        """(W, N) per-window region-view indices: the weighted average
        of each region's ``ID_ij`` row, exactly as
        :func:`repro.core.views.compute_region_view` computes it."""
        return _masked_weighted_mean(
            self.matrix(index), self._weights(weighting), self.performed,
            axis=2)

    def activity_index(self, index: str = "euclidean",
                       weighting: str = "time") -> np.ndarray:
        """(W, K) per-window activity-view indices."""
        return _masked_weighted_mean(
            self.matrix(index), self._weights(weighting), self.performed,
            axis=1)

    def _weights(self, weighting: str) -> np.ndarray:
        if weighting == "time":
            return self.region_activity_times
        if weighting == "uniform":
            return self.performed.astype(float)
        raise DispersionError(
            f"weighting must be 'time' or 'uniform', got {weighting!r}")

    def processor_dispersion(self) -> np.ndarray:
        """(W, N, P) per-window processor-view indices ``ID_P_ip``."""
        if self._processor_dispersion is None:
            self._processor_dispersion = self._per_window(
                BatchAnalysis.processor_dispersion)
        return self._processor_dispersion


class AnalysisSession:
    """Memoized analysis of one measurement set.

    Views, ranking, efficiency, diagnosis and the rendered report all
    pull from the same :class:`BatchAnalysis` caches, so asking the
    same question twice — or several questions that share ingredients,
    as the CLI does — never recomputes a matrix.
    """

    def __init__(self, measurements: MeasurementSet):
        self.measurements = measurements
        self._batch: Optional[BatchAnalysis] = None
        self._cache: Dict[object, object] = {}

    @property
    def batch(self) -> BatchAnalysis:
        """The underlying vectorized engine."""
        if self._batch is None:
            self._batch = BatchAnalysis(self.measurements)
        return self._batch

    def dispersion_matrix(self, index: str = "euclidean") -> np.ndarray:
        """Cached (read-only) ``ID_ij`` matrix for the given index."""
        return self.batch.matrix(index)

    def views(self, index: str = "euclidean", weighting: str = "time"):
        """Cached ``(ActivityView, CodeRegionView)`` pair."""
        key = ("views", index, weighting)
        if key not in self._cache:
            from .views import compute_activity_and_region_views
            self._cache[key] = compute_activity_and_region_views(
                self.measurements, index=index, weighting=weighting,
                dispersion=self.batch.matrix(index).copy())
        return self._cache[key]

    def processor_view(self):
        """Cached :class:`~repro.core.views.ProcessorView`."""
        if "processor_view" not in self._cache:
            from .views import ProcessorView
            self._cache["processor_view"] = ProcessorView(
                measurements=self.measurements,
                dispersion=self.batch.processor_dispersion().copy())
        return self._cache["processor_view"]

    def analyze(self, **options):
        """Cached end-to-end :class:`~repro.core.methodology.AnalysisResult`.

        ``options`` are :class:`~repro.core.methodology.Methodology`
        parameters (``index``, ``weighting``, ``criterion``, ...).
        """
        key = ("analysis", repr(sorted(options.items())))
        if key not in self._cache:
            from .methodology import Methodology
            with obspans.span("batch_analyze",
                              index=options.get("index", "euclidean")):
                self._cache[key] = Methodology(**options).analyze(
                    self.measurements, session=self)
        return self._cache[key]

    def ranking(self, kind: str = "region", criterion: str = "maximum",
                index: str = "euclidean", weighting: str = "time",
                **parameters):
        """Cached ranking of the scaled per-region or per-activity indices."""
        if kind not in ("region", "activity"):
            raise RankingError(
                f"kind must be 'region' or 'activity', got {kind!r}")
        key = ("ranking", kind, criterion, index, weighting,
               repr(sorted(parameters.items())))
        if key not in self._cache:
            from .ranking import rank
            activity_view, region_view = self.views(index, weighting)
            if kind == "activity":
                names, scaled = (self.measurements.activities,
                                 activity_view.scaled_index)
            else:
                names, scaled = (self.measurements.regions,
                                 region_view.scaled_index)
            values = {name: float(value)
                      for name, value in zip(names, scaled)}
            self._cache[key] = rank(values, criterion, **parameters)
        return self._cache[key]

    def efficiency(self, elapsed: Optional[float] = None,
                   useful_activity: str = "computation"):
        """Cached POP-style efficiency factorization."""
        key = ("efficiency", elapsed, useful_activity)
        if key not in self._cache:
            from .efficiency import efficiency
            j = self.measurements.activity_index(useful_activity)
            useful = self.batch.processor_activity_totals()[j]
            self._cache[key] = efficiency(
                self.measurements, elapsed=elapsed,
                useful_activity=useful_activity, useful_times=useful)
        return self._cache[key]

    def diagnosis(self, **options) -> Tuple:
        """Cached automated diagnosis of the (cached) analysis."""
        key = ("diagnosis", repr(sorted(options.items())))
        if key not in self._cache:
            from .diagnosis import diagnose
            self._cache[key] = diagnose(self.analyze(**options))
        return self._cache[key]

    def report(self, **options) -> str:
        """Cached full text report of the (cached) analysis."""
        key = ("report", repr(sorted(options.items())))
        if key not in self._cache:
            from .report import render_full_report
            analysis = self.analyze(**options)
            with obspans.span("batch_report", activity="render"):
                self._cache[key] = render_full_report(analysis)
        return self._cache[key]
