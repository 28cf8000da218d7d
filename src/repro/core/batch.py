"""Vectorized batch analysis engine.

Every index of dispersion is one function over the last axis of its
input (:mod:`repro.core.dispersion`), so a whole ``(N, K, P)`` tensor
is evaluated with one call instead of ``N * K`` per-cell calls, each
paying validation and dispatch overhead.  That matters for large
sweeps (parameter studies, trace replays, per-hypothesis re-analysis)
far more than for the paper's 7x4 example.

* :class:`BatchAnalysis` — walks the tensor in blocks of whole
  regions of at most :data:`BLOCK_BYTES`; each block packs and
  standardizes its own *performed* rows, applies each requested index
  to many of them per call and writes its slice of the ``(N, K)``
  matrix.  The processor view walks the same blocks.  No kernel holds
  a tensor-sized intermediate.  Not-performed ("dash") cells are
  masked out and reported as ``nan``.  A time-resolved analysis
  (:mod:`repro.core.temporal`) applies the same :func:`index_matrix`
  to each window's packed rows.
* :class:`AnalysisSession` — a memoization layer on top of one
  measurement set: views, ranking, efficiency, diagnosis and report
  rendering all reuse the cached dispersion matrices instead of
  recomputing slices.

The per-cell scalar loop lives on as a test oracle
(``tests/oracles.py``): the differential suites hold the engine to it
within ``1e-12`` for every registered index, including degenerate
inputs (single processor, all-equal rows, dash cells), and require the
engine to be at least five times faster.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..errors import RankingError
from ..obs import spans as obspans
from .dispersion import available_indices, get_index, imbalance_time
from .measurements import MeasurementSet
from .standardize import (standardize_along, standardize_over_activities,
                          standardize_over_processors)


#: Bytes of times per kernel block (at least one region's slice) and
#: of packed cells per index call.  A kernel makes several passes over
#: its block; a block this size stays in cache between them, and the
#: temporaries of a pass stay a few blocks, however large the tensor.
BLOCK_BYTES = 1 << 17


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _blockwise(function, cells: np.ndarray) -> np.ndarray:
    """``function(cells)`` for a last-axis index, applied to blocks of
    at most :data:`BLOCK_BYTES` rows at a time."""
    rows = max(1, BLOCK_BYTES // max(1, cells.itemsize * cells.shape[-1]))
    if len(cells) <= rows:
        return function(cells)
    return np.concatenate([function(cells[start:start + rows])
                           for start in range(0, len(cells), rows)])


def _region_blocks(times: np.ndarray) -> Iterable[slice]:
    """Slices of whole regions of ``times`` of at most
    :data:`BLOCK_BYTES` each, or one region where a region is larger."""
    step = max(1, BLOCK_BYTES // max(1, times[0].nbytes))
    return (slice(start, start + step)
            for start in range(0, len(times), step))


def index_matrix(index: str, cells: np.ndarray,
                 performed: np.ndarray) -> np.ndarray:
    """The (N, K) ``ID_ij`` matrix of the registered ``index`` over the
    (M, P) standardized ``cells`` of the ``performed`` mask, nan
    elsewhere.

    The index runs over one cache-sized block of rows per call; the
    cells are valid by construction, so the unvalidated function runs.
    """
    matrix = np.full(performed.shape, np.nan)
    matrix[performed] = _blockwise(get_index(index).__wrapped__, cells)
    return matrix


class BatchAnalysis:
    """All registered indices for all cells, in blocks of whole regions.

    Index matrices, the processor view and the activity totals are
    cached; the standardized tensors and the packed cells are built
    only when asked for (no kernel reads them), then cached too.
    Cached arrays are returned read-only (copy before mutating).
    """

    def __init__(self, measurements: MeasurementSet):
        self.measurements = measurements
        self._standardized_p: Optional[np.ndarray] = None
        self._standardized_a: Optional[np.ndarray] = None
        self._cells: Optional[np.ndarray] = None
        self._matrices: Dict[str, np.ndarray] = {}
        self._processor_dispersion: Optional[np.ndarray] = None
        self._imbalance_time: Optional[np.ndarray] = None
        self._activity_totals: Optional[np.ndarray] = None
        self._performed: Optional[np.ndarray] = None

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
        """``t^_ijp`` standardized across processors (built on first
        access, then cached)."""
        if self._standardized_p is None:
            self._standardized_p = _readonly(
                standardize_over_processors(self.measurements))
        return self._standardized_p

    @property
    def standardized_over_activities(self) -> np.ndarray:
        """``t^_ijp`` standardized across activities (built on first
        access, then cached)."""
        if self._standardized_a is None:
            self._standardized_a = _readonly(
                standardize_over_activities(self.measurements))
        return self._standardized_a

    @property
    def cells(self) -> np.ndarray:
        """(M, P) standardized slices of the performed cells, packed in
        row-major (region, activity) order (built on first access, then
        cached): the rows every index matrix is a function of."""
        if self._cells is None:
            packed = self.measurements.times[self.performed]
            self._cells = _readonly(standardize_along(packed, out=packed))
        return self._cells

    # ------------------------------------------------------------------
    # Kernels, one block of whole regions at a time
    # ------------------------------------------------------------------
    def _row_matrices(self, functions, standardized: bool) -> list:
        """The (N, K) matrix of each last-axis function of every
        performed cell's times (divided by their sum where
        ``standardized``), nan elsewhere.  Each block of regions packs
        and divides its own rows once for all the functions; every
        reduction is per row, so each value is the bits it has in the
        whole packed matrix."""
        times, performed = self.measurements.times, self.performed
        matrices = [np.full(performed.shape, np.nan) for _ in functions]
        for block in _region_blocks(times):
            mask = performed[block]
            if mask.any():
                rows = times[block][mask]
                if standardized:
                    standardize_along(rows, out=rows)
                for function, matrix in zip(functions, matrices):
                    matrix[block][mask] = function(rows)
        return matrices

    def matrix(self, index: str = "euclidean") -> np.ndarray:
        """The (N, K) matrix of ``ID_ij`` under the given index (cached
        and read-only), computed one block of regions at a time."""
        return self.matrices((index,))[index]

    def matrices(self, names: Optional[Iterable[str]] = None
                 ) -> Dict[str, np.ndarray]:
        """``{index: (N, K) matrix}`` for the given indices (default:
        every registered index), those not yet cached sharing one walk
        over the blocks."""
        names = tuple(available_indices() if names is None else names)
        missing = [name for name in dict.fromkeys(names)
                   if name not in self._matrices]
        if missing:
            functions = [get_index(name).__wrapped__ for name in missing]
            for name, matrix in zip(missing, self._row_matrices(
                    functions, standardized=True)):
                self._matrices[name] = _readonly(matrix)
        return {name: self._matrices[name] for name in names}

    def imbalance_time_matrix(self) -> np.ndarray:
        """(N, K) absolute imbalance times ``max_p - mean_p`` of the raw
        cell times (nan for dash cells)."""
        if self._imbalance_time is None:
            self._imbalance_time = _readonly(self._row_matrices(
                [imbalance_time.__wrapped__], standardized=False)[0])
        return self._imbalance_time

    def processor_dispersion(self) -> np.ndarray:
        """(N, P) processor-view indices ``ID_P_ip``.

        Each block of regions divides every (region, processor) profile
        by that processor's time in the region and measures its
        Euclidean distance from the region's average profile.
        Activities a region does not perform contribute exactly zero to
        the distance (their standardized slice is identically zero), so
        the masked per-region loop and this pass agree.
        """
        if self._processor_dispersion is None:
            times = self.measurements.times
            dispersion = np.empty((len(times), times.shape[2]))
            for block in _region_blocks(times):
                deviations = standardize_along(times[block], axis=1)
                deviations -= deviations.mean(axis=2, keepdims=True)
                np.square(deviations, out=deviations)
                np.sqrt(deviations.sum(axis=1), out=dispersion[block])
            self._processor_dispersion = _readonly(dispersion)
        return self._processor_dispersion

    def processor_activity_totals(self) -> np.ndarray:
        """(K, P) total time per activity and processor (cached; the
        efficiency factorization reads its useful-work row from here)."""
        if self._activity_totals is None:
            self._activity_totals = _readonly(
                self.measurements.times.sum(axis=0))
        return self._activity_totals


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
            self._cache[key] = render_full_report(self.analyze(**options))
        return self._cache[key]
