"""The measurement model of the methodology.

The paper characterizes a parallel program by the wall clock times
``t_ijp`` spent by processor ``p`` (of ``P``) in activity ``j`` (of ``K``)
within code region ``i`` (of ``N``).  This module defines
:class:`MeasurementSet`, the container for that three-dimensional tensor
together with its labels and the aggregation conventions used throughout
the analysis:

* ``t_ij``  — wall clock time of activity *j* in region *i*.  By default
  this is the time of the slowest processor (``max`` over *p*), matching
  the usual meaning of "wall clock" for a phase executed collectively.
  Other conventions (``mean``, ``sum``) are supported for sensitivity
  studies.
* ``t_i``   — wall clock time of region *i*: the sum of its ``t_ij``.
* ``T_j``   — wall clock time of activity *j* over the program: the sum
  of its ``t_ij``.
* ``T``     — wall clock time of the whole program.  Instrumented regions
  need not cover the whole execution (in the paper the seven loops cover
  92.6% of the program), so ``T`` may be supplied explicitly; it defaults
  to ``sum(t_i)``.

Zero entries represent "activity not performed"; the paper prints these
as dashes.  A region/activity pair is *performed* when at least one
processor recorded a positive time in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..errors import MeasurementError

#: Aggregation conventions accepted for reducing ``t_ijp`` over processors.
AGGREGATIONS = ("max", "mean", "sum")

#: The four activity names used by the paper's application example.
DEFAULT_ACTIVITIES = (
    "computation",
    "point-to-point",
    "collective",
    "synchronization",
)


def _as_tensor(times: Sequence) -> np.ndarray:
    tensor = np.asarray(times, dtype=float)
    if tensor.ndim != 3:
        raise MeasurementError(
            f"times must be a 3-d array (regions, activities, processors); "
            f"got shape {tensor.shape}"
        )
    if tensor.size:
        # Two reductions and no full-size mask: NaN carries through
        # both, so a NaN or an infinity anywhere makes one of them
        # non-finite, and only then is the smallest value's sign read.
        smallest, largest = float(tensor.min()), float(tensor.max())
        if not (math.isfinite(smallest) and math.isfinite(largest)):
            raise MeasurementError("times must be finite")
        if smallest < 0.0:
            raise MeasurementError("times must be non-negative")
    return tensor


def _default_labels(prefix: str, count: int) -> tuple:
    return tuple(f"{prefix} {index + 1}" for index in range(count))


@dataclass(frozen=True)
class MeasurementSet:
    """Wall clock times of a parallel program, indexed (region, activity, processor).

    Parameters
    ----------
    times:
        Array of shape ``(N, K, P)`` holding ``t_ijp`` in seconds.
    regions:
        Names of the ``N`` code regions (default ``loop 1`` ... ``loop N``).
    activities:
        Names of the ``K`` activities (default: the paper's four).
    total_time:
        Program wall clock time ``T``.  Defaults to the sum of the region
        times, i.e. full instrumentation coverage.
    aggregation:
        How ``t_ij`` is derived from ``t_ijp``: ``"max"`` (default),
        ``"mean"`` or ``"sum"``.
    """

    times: np.ndarray
    regions: tuple = ()
    activities: tuple = ()
    total_time: Optional[float] = None
    aggregation: str = "max"
    _t_ij: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        tensor = _as_tensor(self.times)
        object.__setattr__(self, "times", tensor)
        n_regions, n_activities, n_processors = tensor.shape
        if n_regions == 0 or n_activities == 0 or n_processors == 0:
            raise MeasurementError("times must have at least one region, "
                                   "activity and processor")
        regions = tuple(self.regions) or _default_labels("loop", n_regions)
        activities = tuple(self.activities)
        if not activities:
            if n_activities == len(DEFAULT_ACTIVITIES):
                activities = DEFAULT_ACTIVITIES
            else:
                activities = _default_labels("activity", n_activities)
        if len(regions) != n_regions:
            raise MeasurementError(
                f"{n_regions} regions but {len(regions)} region names")
        if len(activities) != n_activities:
            raise MeasurementError(
                f"{n_activities} activities but {len(activities)} activity names")
        if len(set(regions)) != len(regions):
            raise MeasurementError("region names must be unique")
        if len(set(activities)) != len(activities):
            raise MeasurementError("activity names must be unique")
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "activities", activities)
        if self.aggregation not in AGGREGATIONS:
            raise MeasurementError(
                f"aggregation must be one of {AGGREGATIONS}, "
                f"got {self.aggregation!r}")
        t_ij = self._aggregate(tensor)
        object.__setattr__(self, "_t_ij", t_ij)
        covered = float(t_ij.sum())
        object.__setattr__(self, "total_time",
                           covered if self.total_time is None
                           else self._checked_total(self.total_time))

    def _checked_total(self, total_time: float) -> float:
        """``total_time`` as a float, checked against the covered time."""
        total = float(total_time)
        if not np.isfinite(total) or total <= 0.0:
            raise MeasurementError("total_time must be a positive number")
        covered = self.covered_time
        # Allow a little slack for rounding in externally supplied data.
        if total < covered * (1.0 - 1e-9) - 1e-12:
            raise MeasurementError(
                f"total_time {total} is smaller than the time covered by "
                f"the instrumented regions ({covered})")
        return total

    def _aggregate(self, tensor: np.ndarray) -> np.ndarray:
        if self.aggregation == "max":
            return tensor.max(axis=2)
        if self.aggregation == "mean":
            return tensor.mean(axis=2)
        return tensor.sum(axis=2)

    # ------------------------------------------------------------------
    # Shape accessors
    # ------------------------------------------------------------------
    @property
    def n_regions(self) -> int:
        """``N``: number of code regions."""
        return self.times.shape[0]

    @property
    def n_activities(self) -> int:
        """``K``: number of activities."""
        return self.times.shape[1]

    @property
    def n_processors(self) -> int:
        """``P``: number of allocated processors."""
        return self.times.shape[2]

    # ------------------------------------------------------------------
    # Aggregated wall clock times (the paper's t_ij, t_i, T_j, T)
    # ------------------------------------------------------------------
    @property
    def region_activity_times(self) -> np.ndarray:
        """``t_ij``: (N, K) wall clock time of activity *j* in region *i*."""
        return self._t_ij.copy()

    @property
    def region_times(self) -> np.ndarray:
        """``t_i``: (N,) wall clock time of each code region."""
        return self._t_ij.sum(axis=1)

    @property
    def activity_times(self) -> np.ndarray:
        """``T_j``: (K,) wall clock time of each activity over the program."""
        return self._t_ij.sum(axis=0)

    @property
    def covered_time(self) -> float:
        """Total wall clock time accounted for by the instrumented regions."""
        return float(self._t_ij.sum())

    @property
    def coverage(self) -> float:
        """Fraction of the program wall clock covered by the regions."""
        return self.covered_time / self.total_time

    @property
    def performed(self) -> np.ndarray:
        """(N, K) boolean mask: activity *j* was performed in region *i*."""
        return self.times.max(axis=2) > 0.0

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def region_index(self, region: str) -> int:
        """Index of a region by name."""
        try:
            return self.regions.index(region)
        except ValueError:
            raise MeasurementError(f"unknown region {region!r}; "
                                   f"have {self.regions}") from None

    def activity_index(self, activity: str) -> int:
        """Index of an activity by name."""
        try:
            return self.activities.index(activity)
        except ValueError:
            raise MeasurementError(f"unknown activity {activity!r}; "
                                   f"have {self.activities}") from None

    def processor_region_times(self) -> np.ndarray:
        """(N, P) time each processor spent in each region (sum over activities)."""
        return self.times.sum(axis=1)

    def processor_times(self) -> np.ndarray:
        """(P,) total instrumented time of each processor."""
        return self.times.sum(axis=(0, 1))

    # ------------------------------------------------------------------
    # Derivation helpers
    # ------------------------------------------------------------------
    def with_total_time(self, total_time: float) -> "MeasurementSet":
        """Copy of this set with a different program wall clock ``T``.

        The tensor and its ``t_ij`` were checked when this set was made,
        so only the new ``T`` is.
        """
        copied = object.__new__(type(self))
        copied.__dict__.update(self.__dict__,
                               total_time=self._checked_total(total_time))
        return copied

    def with_aggregation(self, aggregation: str) -> "MeasurementSet":
        """Copy of this set using a different ``t_ij`` convention."""
        return MeasurementSet(self.times, self.regions, self.activities,
                              total_time=None, aggregation=aggregation)

    def subset_regions(self, names: Sequence[str]) -> "MeasurementSet":
        """Restrict to the given regions (order preserved as given)."""
        indices = [self.region_index(name) for name in names]
        return MeasurementSet(self.times[indices], tuple(names),
                              self.activities, aggregation=self.aggregation)

    def subset_activities(self, names: Sequence[str]) -> "MeasurementSet":
        """Restrict to the given activities (order preserved as given)."""
        indices = [self.activity_index(name) for name in names]
        return MeasurementSet(self.times[:, indices], self.regions,
                              tuple(names), aggregation=self.aggregation)

    def subset_processors(self,
                          processors: Sequence[int]) -> "MeasurementSet":
        """Restrict to the given processor columns (order preserved).

        The main use is masking processors whose measurements never made
        it into a salvaged trace (see :func:`missing_processors`) so the
        dispersion analysis compares only ranks that actually reported.
        """
        indices = list(processors)
        if not indices:
            raise MeasurementError("need at least one processor")
        for p in indices:
            if not 0 <= p < self.n_processors:
                raise MeasurementError(
                    f"processor {p} out of range (have "
                    f"{self.n_processors})")
        if len(set(indices)) != len(indices):
            raise MeasurementError("processor indices must be unique")
        return MeasurementSet(self.times[:, :, indices], self.regions,
                              self.activities,
                              aggregation=self.aggregation)

    def missing_processors(self) -> tuple:
        """Zero-based indices of processors with no recorded time at all.

        An all-zero column typically means the rank's events were lost
        (crashed before flushing, or cut off a salvaged trace) rather
        than that the rank did nothing; :func:`subset_processors` with
        the complement drops such ghosts before analysis.
        """
        return tuple(int(p) for p in range(self.n_processors)
                     if not self.times[:, :, p].any())

    def without_missing_processors(self) -> "MeasurementSet":
        """Copy with all-zero processor columns dropped (no-op copy when
        none are missing)."""
        missing = set(self.missing_processors())
        if not missing:
            return self
        keep = [p for p in range(self.n_processors) if p not in missing]
        if not keep:
            raise MeasurementError(
                "every processor column is empty; nothing to analyze")
        return self.subset_processors(keep)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MeasurementSet(N={self.n_regions}, K={self.n_activities}, "
                f"P={self.n_processors}, T={self.total_time:.6g}s, "
                f"coverage={self.coverage:.1%})")
