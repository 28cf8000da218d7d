"""Temporal analysis: how imbalance evolves over a run.

The paper analyzes one post-mortem profile; its future-work section
calls for new criteria and broader program coverage.  Dynamic imbalance
— load that *drifts* as the computation evolves (adaptive meshes,
particle migration) — is invisible in a single profile, so this module
extends the methodology along time: given a sequence of per-window
measurement sets (from :func:`repro.instrument.window_profiles`, or
built one at a time by :func:`repro.instrument.stream.trace_windows`),
it

* tracks each region's and each activity's index of dispersion across
  windows: each window's ``ID_ij`` matrix comes from its packed
  performed rows through :func:`repro.core.batch.index_matrix`, as a
  whole trace's does, and is reduced by
  :func:`repro.core.views.view_indices`, the very reduction behind the
  whole-trace activity and code-region views; the windows are read
  once, in order, and none is held once the next is asked for, so
  only one window exists at a time,
* fits a linear trend (least squares) per series,
* flags *drifting* regions — significant positive slope — which a
  one-shot analysis would underestimate,
* segments the series into *phases* (change-point detection on the
  piecewise-constant model) and
* forecasts the window at which a drifting series crosses a threshold
  by extrapolating its fitted trend.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..errors import MeasurementError
from .batch import index_matrix
from .standardize import standardize_along
from .views import view_indices
from .window import Window


def _finite(series: Sequence[float]) -> np.ndarray:
    values = np.asarray(series, dtype=float)
    return values[~np.isnan(values)]


def _amplification(series: Sequence[float]) -> float:
    """End-to-end growth factor of a series.

    Measured final over first finite value.  A series that *starts at
    zero* — a region that begins perfectly balanced — is measured from
    its first positive value instead, so degradation from balance is
    never hidden behind a zero denominator; if the only positive value
    is the final one the growth is reported as infinite.
    """
    finite = _finite(series)
    if finite.size < 2:
        return 1.0
    first, final = float(finite[0]), float(finite[-1])
    if first > 0.0:
        return final / first
    baselines = finite[:-1][finite[:-1] > 0.0]
    if baselines.size:
        return final / float(baselines[0])
    return float("inf") if final > 0.0 else 1.0


def _fit_line(series: np.ndarray) -> Tuple[float, float]:
    """Least-squares ``(slope, intercept)`` over the finite entries."""
    mask = ~np.isnan(series)
    if mask.sum() < 2:
        value = float(series[mask][0]) if mask.any() else 0.0
        return 0.0, value
    x = np.arange(series.size)[mask]
    y = series[mask]
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def _forecast_window(series: Sequence[float], slope: float,
                     intercept: float, threshold: float) -> float:
    """Window index at which the series reaches ``threshold``.

    The first window already at or above the threshold if one exists;
    otherwise the extrapolated crossing of the fitted line (``inf``
    when the trend never reaches it).
    """
    for position, value in enumerate(series):
        if not np.isnan(value) and value >= threshold:
            return float(position)
    if slope <= 0.0:
        return float("inf")
    return (threshold - intercept) / slope


@dataclass(frozen=True)
class RegionTrend:
    """Evolution of one region's imbalance across windows."""

    region: str
    #: Index of dispersion ``ID_C`` per window (nan where idle).
    series: Tuple[float, ...]
    #: Least-squares slope per unit of window index.
    slope: float
    #: Mean of the series (ignoring nan windows).
    mean: float
    #: Least-squares intercept (window 0 value of the fitted line).
    intercept: float = 0.0

    @property
    def final(self) -> float:
        """Last finite value of the series."""
        finite = _finite(self.series)
        return float(finite[-1]) if finite.size else float("nan")

    @property
    def amplification(self) -> float:
        """How much the imbalance grew end to end.

        ``final / first-finite`` when the series starts positive.  A
        region that starts perfectly balanced (first finite value 0) and
        degrades is measured from its first positive value — and
        reported as ``inf`` when the positive final value is the first
        — so a zero start never masks the drift.
        """
        return _amplification(self.series)

    def forecast_window(self, threshold: float) -> float:
        """Window index at which this region reaches ``threshold`` (the
        observed crossing, the trend-line extrapolation, or ``inf``)."""
        return _forecast_window(self.series, self.slope, self.intercept,
                                threshold)


@dataclass(frozen=True)
class ActivityTrend:
    """Evolution of one activity's imbalance across windows."""

    activity: str
    series: Tuple[float, ...]
    slope: float
    mean: float
    intercept: float = 0.0

    @property
    def final(self) -> float:
        finite = _finite(self.series)
        return float(finite[-1]) if finite.size else float("nan")

    @property
    def amplification(self) -> float:
        return _amplification(self.series)

    def forecast_window(self, threshold: float) -> float:
        return _forecast_window(self.series, self.slope, self.intercept,
                                threshold)


@dataclass(frozen=True)
class Phase:
    """One segment of windows with (approximately) stationary imbalance."""

    #: First window of the phase.
    begin: int
    #: One past the last window of the phase.
    end: int
    #: Mean of the finite series values inside the phase.
    mean: float

    @property
    def n_windows(self) -> int:
        return self.end - self.begin


#: A candidate cost replaces the running best only when lower by more.
_TIE = 1e-12


def _sequential_winner(costs: np.ndarray) -> int:
    """The candidate an in-order scan keeps, where a candidate replaces
    the running best only when it is lower by more than :data:`_TIE`
    (-1 when no cost is finite).

    Each replacement is a strict prefix minimum, and along the strict
    prefix minima the costs fall, so the scan only has to walk past the
    minima that are within the tie of the running best: a run of
    minima that each beat the previous by more than the tie is taken in
    one step, and the next winner after a tie is a binary search.
    """
    costs = np.where(costs < np.inf, costs, np.inf)   # nan never wins
    before = np.concatenate(([np.inf], np.minimum.accumulate(costs)[:-1]))
    minima = np.flatnonzero(costs < before)
    if not minima.size:
        return -1
    values = costs[minima]
    thresholds = values - _TIE
    ties = np.flatnonzero(values[1:] >= thresholds[:-1])
    position = 0
    while True:
        # The minima from ``position`` up to the next tie all win.
        at = np.searchsorted(ties, position)
        if at == ties.size:
            return int(minima[-1])
        position = int(ties[at])
        following = int(np.searchsorted(-values, -thresholds[position],
                                        side="right"))
        if following == values.size:
            return int(minima[position])
        position = following


def detect_phases(series: Sequence[float], penalty: Optional[float] = None,
                  min_size: int = 1) -> Tuple[Phase, ...]:
    """Segment a per-window series into phases of stationary level.

    Exact change-point detection under the piecewise-constant model:
    dynamic programming minimizes the within-segment sum of squared
    deviations plus ``penalty`` per additional segment.  The default
    penalty is BIC-flavoured — twice the first-difference noise
    variance times ``log(n)`` — so step changes well above the
    window-to-window jitter become boundaries and noise does not.  nan
    entries (idle windows) carry no evidence: they are filled with the
    finite mean for the cost computation.
    """
    values = np.asarray(list(series), dtype=float)
    n = values.size
    if n == 0:
        raise MeasurementError("cannot segment an empty series")
    if min_size < 1:
        raise MeasurementError("min_size must be at least 1")
    finite_mask = np.isfinite(values)
    if not finite_mask.any():
        return (Phase(begin=0, end=n, mean=float("nan")),)
    filled = np.where(finite_mask, values, values[finite_mask].mean())
    if penalty is None:
        diffs = np.diff(filled)
        sigma_sq = float(diffs.var() / 2.0) if diffs.size else 0.0
        penalty = 2.0 * sigma_sq * np.log(max(n, 2))
    if penalty <= 0.0:
        penalty = 1e-12

    prefix = np.concatenate(([0.0], np.cumsum(filled)))
    prefix_sq = np.concatenate(([0.0], np.cumsum(filled ** 2)))

    best = np.full(n + 1, np.inf)
    best[0] = -float(penalty)
    previous = np.zeros(n + 1, dtype=int)
    for stop in range(min_size, n + 1):
        # Every segment start at once: cost of the segment [start, stop)
        # on top of the best segmentation of the windows before it.
        starts = np.arange(stop - min_size + 1)
        total = prefix[stop] - prefix[starts]
        total_sq = prefix_sq[stop] - prefix_sq[starts]
        costs = best[starts] + penalty + (total_sq - total * total
                                          / (stop - starts))
        winner = _sequential_winner(costs)
        if winner >= 0:
            best[stop] = costs[winner]
            previous[stop] = winner
    boundaries = [n]
    while boundaries[-1] > 0:
        boundaries.append(int(previous[boundaries[-1]]))
    boundaries.reverse()

    phases = []
    for begin, end in zip(boundaries, boundaries[1:]):
        inside = values[begin:end]
        inside = inside[np.isfinite(inside)]
        phases.append(Phase(begin=begin, end=end,
                            mean=float(inside.mean()) if inside.size
                            else float("nan")))
    return tuple(phases)


def overall_series(series) -> Tuple[float, ...]:
    """Mean of the finite entries of each column of a (regions, windows)
    series matrix — the program's imbalance level per window (nan where
    no region has a finite value)."""
    stacked = np.array(series, dtype=float)
    finite = ~np.isnan(stacked)
    counts = finite.sum(axis=0)
    sums = np.where(finite, stacked, 0.0).sum(axis=0)
    means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return tuple(float(value) for value in means)


@dataclass(frozen=True)
class TemporalAnalysis:
    """Trends of every region (and activity) over the windows."""

    trends: Tuple[RegionTrend, ...]
    n_windows: int
    activity_trends: Tuple[ActivityTrend, ...] = ()
    #: Start of the first window and end of the last (nan when the
    #: windows were bare measurement sets).
    begin: float = float("nan")
    end: float = float("nan")

    def trend(self, region: str) -> RegionTrend:
        for candidate in self.trends:
            if candidate.region == region:
                return candidate
        raise MeasurementError(f"unknown region {region!r}")

    def activity_trend(self, activity: str) -> ActivityTrend:
        for candidate in self.activity_trends:
            if candidate.activity == activity:
                return candidate
        raise MeasurementError(f"unknown activity {activity!r}")

    def drifting_regions(self, slope_threshold: float = 0.0,
                         amplification_threshold: float = 1.5
                         ) -> Tuple[str, ...]:
        """Regions whose imbalance grows: positive slope beyond the
        threshold *and* amplified by the given factor end to end."""
        return tuple(
            trend.region for trend in self.trends
            if trend.slope > slope_threshold
            and trend.amplification >= amplification_threshold)

    def stationary_regions(self, slope_tolerance: float = 1e-3
                           ) -> Tuple[str, ...]:
        """Regions whose imbalance stays flat."""
        return tuple(trend.region for trend in self.trends
                     if abs(trend.slope) <= slope_tolerance)

    def overall_series(self) -> Tuple[float, ...]:
        """Mean of the finite region series per window — the program's
        imbalance level over time (:func:`overall_series`)."""
        return overall_series([trend.series for trend in self.trends])

    def phases(self, region: Optional[str] = None,
               penalty: Optional[float] = None) -> Tuple[Phase, ...]:
        """Change-point segmentation of one region's series (or of the
        overall per-window mean when ``region`` is None)."""
        series = (self.trend(region).series if region is not None
                  else self.overall_series())
        return detect_phases(series, penalty=penalty)

    def forecast(self, threshold: float) -> Dict[str, float]:
        """Per region, the window index at which its imbalance reaches
        ``threshold`` (observed, extrapolated, or ``inf`` — see
        :meth:`RegionTrend.forecast_window`)."""
        return {trend.region: trend.forecast_window(threshold)
                for trend in self.trends}


def _series_trends(names: Sequence[str], series: np.ndarray, factory):
    """Fit one trend per column of the (W, len(names)) series matrix."""
    trends = []
    for position, name in enumerate(names):
        values = series[:, position]
        finite = values[~np.isnan(values)]
        slope, intercept = _fit_line(values)
        trends.append(factory(
            name,
            series=tuple(float(value) for value in values),
            slope=slope,
            mean=float(finite.mean()) if finite.size else float("nan"),
            intercept=intercept,
        ))
    return tuple(trends)


def _window_views(window, index: str) -> Tuple:
    """``(regions, activities, region view, activity view)`` of one
    window under ``index``.

    A window carries its ``t_ij`` matrix and its packed performed rows
    (a cell is performed where its ``t_ij`` is positive); a bare
    measurement set gives its ``t_ij``, its performed mask and
    ``times[performed]``.  Each row is divided by its own sum
    (:func:`~repro.core.standardize.standardize_along`, as the batch
    engine divides it), so the views are the window's whole-set views
    bit for bit.
    """
    if isinstance(window, Window):
        t_ij, rows = window.t_ij, window.rows
        performed = t_ij > 0.0
    else:
        t_ij, performed = window.region_activity_times, window.performed
        rows = window.times[performed]
    cells = standardize_along(rows)
    return (window.regions, window.activities,
            *view_indices(index_matrix(index, cells, performed), t_ij))


def temporal_analysis(windows: Iterable, index: str = "euclidean"
                      ) -> TemporalAnalysis:
    """Analyze a sequence of windows (or bare measurement sets).

    Accepts :class:`~repro.core.window.Window` objects or plain
    :class:`~repro.core.measurements.MeasurementSet` instances; all must
    share region names.  ``windows`` is iterated once, and no window is
    held once the next is asked for, so windows built on demand are
    analyzed one at a time.  Each window's region and activity indices
    are exactly its whole-trace views:
    :func:`~repro.core.views.view_indices` of its ``ID_ij`` matrix under
    its ``t_ij`` weights.  Windows whose activities differ give no
    activity series.  The series fill ``(W, N)`` and ``(W, K)`` arrays,
    sized by the iterable's length where it has one and doubled when
    the windows outgrow them.
    """
    labels = None
    same_activities = True
    begin = end = float("nan")
    n_windows = 0
    for window in windows:
        regions, activities, region_row, activity_row = _window_views(
            window, index)
        if labels is None:
            labels = regions, activities
            begin = getattr(window, "begin", begin)
            capacity = max(operator.length_hint(windows), 64)
            region_series = np.empty((capacity, len(regions)))
            activity_series = np.empty((capacity, len(activities)))
        elif regions != labels[0]:
            raise MeasurementError(
                "all windows must share the same region names")
        else:
            same_activities &= activities == labels[1]
        end = getattr(window, "end", end)
        del window      # the next window is built without this one
        if n_windows == len(region_series):
            region_series, activity_series = (
                np.concatenate((series, np.empty_like(series)))
                for series in (region_series, activity_series))
        region_series[n_windows] = region_row
        if same_activities:
            activity_series[n_windows] = activity_row
        n_windows += 1
    if labels is None:
        raise MeasurementError("need at least one window")
    activity_names = labels[1] if same_activities else ()
    activity_series = (activity_series[:n_windows] if same_activities
                       else np.empty((n_windows, 0)))

    trends = _series_trends(
        labels[0], region_series[:n_windows],
        lambda name, **fields: RegionTrend(region=name, **fields))
    activity_trends = _series_trends(
        activity_names, activity_series,
        lambda name, **fields: ActivityTrend(activity=name, **fields))
    return TemporalAnalysis(trends=trends, n_windows=n_windows,
                            activity_trends=activity_trends,
                            begin=begin, end=end)
