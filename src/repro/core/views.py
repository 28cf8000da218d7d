"""The three views of processor dissimilarity (paper §3.1–3.3).

All three views start from the same ingredient: the wall clock times
``t_ijp`` standardized so that each relevant data set sums to one, and an
index of dispersion (by default the paper's Euclidean distance from the
mean).

* **Activity view** (§3.2): ``ID_ij`` measures the spread, across
  processors, of the time of activity *j* in region *i*.  The per-activity
  summary is the weighted average ``ID_A_j = sum_i (t_ij / T_j) * ID_ij``
  and its scaled counterpart ``SID_A_j = (T_j / T) * ID_A_j`` discounts
  activities that, however imbalanced, account for little program time.
* **Code-region view** (§3.3): reuses ``ID_ij`` with per-region weights:
  ``ID_C_i = sum_j (t_ij / t_i) * ID_ij`` and ``SID_C_i = (t_i / T) * ID_C_i``.
* **Processor view** (§3.1): within each region, every processor's
  standardized activity profile is compared against the average profile:
  ``ID_P_ip = sqrt(sum_j (t^_ijp - mean_p t^_ijp)^2)``.  From these the
  view derives the *most frequently imbalanced* processor (tops the most
  regions) and the processor *imbalanced for the longest time* (largest
  wall clock summed over the regions it tops).

Entries for activities that a region does not perform are reported as
``nan`` and excluded from every weighted average (their weight would be
zero anyway, since ``t_ij = 0``).  Both weighted views are one
reduction, :func:`view_indices`, which the time-resolved analysis
(:mod:`repro.core.temporal`) applies to each window unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import DispersionError
from .batch import BatchAnalysis
from .measurements import MeasurementSet


def dispersion_matrix(measurements: MeasurementSet,
                      index: str = "euclidean") -> np.ndarray:
    """The (N, K) matrix of indices of dispersion ``ID_ij``.

    ``ID_ij`` is computed on the times of activity *j* in region *i*
    standardized across processors; pairs the region does not perform are
    ``nan``.  Evaluated by the vectorized batch engine
    (:mod:`repro.core.batch`) in one pass over all performed cells, and
    returned as a fresh, writable copy of its cached matrix.
    """
    return BatchAnalysis(measurements).matrix(index).copy()


def view_indices(matrix: np.ndarray, weights: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(N,)`` region view ``ID_C_i`` and the ``(K,)`` activity view
    ``ID_A_j`` of an ``(N, K)`` ``ID_ij`` matrix.

    Each is the weighted mean of a row (region) or a column (activity)
    under ``weights``, with the ``nan`` entries of ``matrix`` excluded;
    a row or column whose remaining weights sum to zero is ``nan``.
    The views of a whole trace and of each of its windows are this one
    reduction.
    """
    mask = ~np.isnan(matrix)
    effective = np.where(mask, weights, 0.0)
    weighted = np.where(mask, matrix, 0.0) * effective

    def mean(axis: int) -> np.ndarray:
        totals = effective.sum(axis=axis)
        safe = np.where(totals > 0.0, totals, 1.0)
        return np.where(totals > 0.0, weighted.sum(axis=axis) / safe,
                        np.nan)

    return mean(1), mean(0)


@dataclass(frozen=True)
class ActivityView:
    """Per-activity summary of the dissimilarities (paper §3.2)."""

    measurements: MeasurementSet
    #: (N, K) indices of dispersion ``ID_ij`` (nan where not performed).
    dispersion: np.ndarray
    #: (K,) weighted averages ``ID_A_j``.
    index: np.ndarray
    #: (K,) scaled indices ``SID_A_j``.
    scaled_index: np.ndarray

    @property
    def activities(self) -> tuple:
        return self.measurements.activities

    def most_imbalanced(self, scaled: bool = False) -> str:
        """Name of the activity with the largest (scaled) index."""
        values = self.scaled_index if scaled else self.index
        return self.activities[int(np.nanargmax(values))]

    def ranking(self, scaled: bool = False) -> Tuple[str, ...]:
        """Activity names sorted by decreasing (scaled) index."""
        values = self.scaled_index if scaled else self.index
        order = np.argsort(np.nan_to_num(values, nan=-np.inf))[::-1]
        return tuple(self.activities[int(k)] for k in order)

    def localize(self, activity: str) -> str:
        """Region where the given activity is most imbalanced (max ``ID_ij``)."""
        j = self.measurements.activity_index(activity)
        column = self.dispersion[:, j]
        if np.all(np.isnan(column)):
            raise DispersionError(
                f"activity {activity!r} is performed in no region")
        return self.measurements.regions[int(np.nanargmax(column))]


@dataclass(frozen=True)
class CodeRegionView:
    """Per-region summary of the dissimilarities (paper §3.3)."""

    measurements: MeasurementSet
    #: (N, K) indices of dispersion ``ID_ij`` (shared with the activity view).
    dispersion: np.ndarray
    #: (N,) weighted averages ``ID_C_i``.
    index: np.ndarray
    #: (N,) scaled indices ``SID_C_i``.
    scaled_index: np.ndarray

    @property
    def regions(self) -> tuple:
        return self.measurements.regions

    def most_imbalanced(self, scaled: bool = False) -> str:
        """Name of the region with the largest (scaled) index."""
        values = self.scaled_index if scaled else self.index
        return self.regions[int(np.nanargmax(values))]

    def ranking(self, scaled: bool = False) -> Tuple[str, ...]:
        """Region names sorted by decreasing (scaled) index."""
        values = self.scaled_index if scaled else self.index
        order = np.argsort(np.nan_to_num(values, nan=-np.inf))[::-1]
        return tuple(self.regions[int(i)] for i in order)

    def localize(self, region: str) -> str:
        """Activity within the region with the largest ``ID_ij``."""
        i = self.measurements.region_index(region)
        row = self.dispersion[i, :]
        if np.all(np.isnan(row)):
            raise DispersionError(f"region {region!r} performs no activity")
        return self.measurements.activities[int(np.nanargmax(row))]

    def tuning_candidates(self, minimum_time_share: float = 0.05) -> Tuple[str, ...]:
        """Regions worth tuning: large index *and* a non-negligible share
        of program time, ordered by scaled index.

        The paper's conclusion for its application example — loop 6 is the
        most imbalanced but too short to matter, loop 1 combines a large
        index with a large share — is exactly this filter.
        """
        shares = self.measurements.region_times / self.measurements.total_time
        eligible = [
            (float(self.scaled_index[i]), self.regions[i])
            for i in range(len(self.regions))
            if shares[i] >= minimum_time_share
            and not np.isnan(self.scaled_index[i])
        ]
        eligible.sort(reverse=True)
        return tuple(name for _, name in eligible)


@dataclass(frozen=True)
class ProcessorView:
    """Per-processor dissimilarities within each region (paper §3.1)."""

    measurements: MeasurementSet
    #: (N, P) indices of dispersion ``ID_P_ip``.
    dispersion: np.ndarray

    @property
    def regions(self) -> tuple:
        return self.measurements.regions

    @property
    def n_processors(self) -> int:
        return self.measurements.n_processors

    def most_imbalanced_processor(self, region: str,
                                  activity: Optional[str] = None) -> int:
        """Zero-based index of the processor with the largest ``ID_P`` in
        the region.

        With ``activity`` given, drill one level further (the paper's
        §3.3 walk ends by examining the critical activity's per-processor
        times): rank the processors by their standardized share of that
        activity within the region and return the most overloaded one.
        This discriminates even when the region performs a single
        activity, where all profile *shapes* coincide and ``ID_P`` ties.
        """
        i = self.measurements.region_index(region)
        if activity is None:
            return int(np.argmax(self.dispersion[i, :]))
        j = self.measurements.activity_index(activity)
        times = self.measurements.times[i, j, :]
        total = float(times.sum())
        if total <= 0.0:
            raise DispersionError(
                f"region {region!r} spends no time in activity "
                f"{activity!r}")
        return int(np.argmax(times / total))

    def imbalance_counts(self) -> np.ndarray:
        """(P,) number of regions in which each processor attains the
        largest ``ID_P``."""
        counts = np.zeros(self.n_processors, dtype=int)
        winners = np.argmax(self.dispersion, axis=1)
        for p in winners:
            counts[int(p)] += 1
        return counts

    def imbalanced_times(self) -> np.ndarray:
        """(P,) wall clock each processor spent in the regions it tops."""
        own_region_times = self.measurements.processor_region_times()
        winners = np.argmax(self.dispersion, axis=1)
        times = np.zeros(self.n_processors)
        for i, p in enumerate(winners):
            times[int(p)] += own_region_times[i, int(p)]
        return times

    def summary(self) -> "ProcessorSummary":
        """Bundle the headline facts of the processor view."""
        counts = self.imbalance_counts()
        times = self.imbalanced_times()
        frequent = int(np.argmax(counts))
        longest = int(np.argmax(times))
        winners = {region: int(np.argmax(self.dispersion[i, :]))
                   for i, region in enumerate(self.regions)}
        return ProcessorSummary(
            most_frequent=frequent,
            most_frequent_count=int(counts[frequent]),
            longest=longest,
            longest_time=float(times[longest]),
            region_winners=winners,
        )


@dataclass(frozen=True)
class ProcessorSummary:
    """Headline findings of the processor view.

    Processor indices are zero-based; the paper numbers processors from 1.
    """

    most_frequent: int
    most_frequent_count: int
    longest: int
    longest_time: float
    region_winners: dict


def compute_processor_view(measurements: MeasurementSet,
                           index: str = "euclidean") -> ProcessorView:
    """Compute ``ID_P_ip`` for every region and processor.

    Each processor's times within a region are standardized across
    activities; the index is the Euclidean distance between the
    processor's profile and the average profile over processors (any
    other ``index`` raises :class:`DispersionError`).  Only activities
    the region performs enter the profile (not-performed activities
    contribute exactly zero, so the batch engine evaluates whole blocks
    of regions at once).
    """
    if index != "euclidean":
        # Refused before the (N, P) matrix is built, which costs a
        # full-tensor pass.
        raise DispersionError(
            "the processor view is defined by the paper in terms of the "
            "Euclidean distance; other indices apply to the activity and "
            "code-region views")
    matrix = BatchAnalysis(measurements).processor_dispersion().copy()
    return ProcessorView(measurements=measurements, dispersion=matrix)


def compute_activity_and_region_views(
        measurements: MeasurementSet,
        index: str = "euclidean",
        weighting: str = "time",
        dispersion: Optional[np.ndarray] = None,
) -> Tuple[ActivityView, CodeRegionView]:
    """Compute the activity and code-region views in one pass.

    ``weighting`` selects how ``ID_ij`` values are averaged:

    * ``"time"`` — the paper's weights (``t_ij / T_j`` per activity,
      ``t_ij / t_i`` per region);
    * ``"uniform"`` — unweighted averages over performed pairs (used by
      the weighting ablation).

    ``dispersion`` accepts a precomputed ``ID_ij`` matrix (from the
    batch engine's caches) so repeated analyses skip the heavy pass.
    """
    if weighting not in ("time", "uniform"):
        raise DispersionError(
            f"weighting must be 'time' or 'uniform', got {weighting!r}")
    matrix = dispersion if dispersion is not None \
        else dispersion_matrix(measurements, index=index)
    t_ij = measurements.region_activity_times
    total = measurements.total_time
    activity_times = measurements.activity_times
    region_times = measurements.region_times

    if weighting == "time":
        weights = t_ij
    else:
        weights = np.where(measurements.performed, 1.0, 0.0)

    region_index, activity_index = view_indices(matrix, weights)
    scaled_activity = activity_index * (activity_times / total)
    scaled_region = region_index * (region_times / total)

    activity_view = ActivityView(
        measurements=measurements,
        dispersion=matrix,
        index=activity_index,
        scaled_index=scaled_activity,
    )
    region_view = CodeRegionView(
        measurements=measurements,
        dispersion=matrix,
        index=region_index,
        scaled_index=scaled_region,
    )
    return activity_view, region_view


def compute_activity_view(measurements: MeasurementSet,
                          index: str = "euclidean",
                          weighting: str = "time") -> ActivityView:
    """Convenience wrapper returning only the activity view."""
    activity_view, _ = compute_activity_and_region_views(
        measurements, index=index, weighting=weighting)
    return activity_view


def compute_region_view(measurements: MeasurementSet,
                        index: str = "euclidean",
                        weighting: str = "time") -> CodeRegionView:
    """Convenience wrapper returning only the code-region view."""
    _, region_view = compute_activity_and_region_views(
        measurements, index=index, weighting=weighting)
    return region_view
