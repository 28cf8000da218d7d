"""One time window of a trace and its profile, held packed.

Of each window a time-resolved analysis (:mod:`repro.core.temporal`)
reads only the ``(N, K)`` ``t_ij`` matrix and the ``(M, P)`` rows of
the ``M`` performed cells, so that is what a :class:`Window` holds:
the windowing pass (:func:`repro.instrument.windows.fold_windows`)
bins each window's events straight into that form, and a window costs
its performed cells, not ``N * K * P``.
"""

from __future__ import annotations

import numpy as np

from ..errors import MeasurementError
from .measurements import MeasurementSet


class Window:
    """One time window of a trace, ``[begin, end)``, with its profile.

    The profile is held packed: ``t_ij``, the ``(N, K)`` wall clock
    times of its (region, activity) cells, and ``rows``, the ``(M, P)``
    per-processor times of its ``M`` performed cells (those with a
    positive ``t_ij``) in row-major (region, activity) order.
    ``total_time`` is the window's ``T``.  A window made from a
    measurement set packs that set's rows and keeps it; a window binned
    from a trace builds its :attr:`measurements` from the rows on each
    access.
    """

    def __init__(self, begin: float, end: float,
                 measurements: MeasurementSet) -> None:
        t_ij = measurements.region_activity_times
        self.begin, self.end = begin, end
        self.regions = measurements.regions
        self.activities = measurements.activities
        self.t_ij, self.rows = t_ij, measurements.times[t_ij > 0.0]
        self.total_time = measurements.total_time
        self._measurements = measurements

    @classmethod
    def _binned(cls, begin: float, end: float, regions: tuple,
                activities: tuple, n_ranks: int, cells: np.ndarray,
                ranks: np.ndarray, durations: np.ndarray,
                clipped_end: np.ndarray) -> "Window":
        """A window binned from its events' flat (region, activity)
        cells (-1 for time the profile skips), ranks, clipped durations
        and clipped ends, in event order; it keeps no measurement set.
        ``T`` is the largest of 0, the last clipped end and the covered
        time."""
        counted = cells >= 0
        cells = cells[counted]
        # Each performed cell's row, in (region, activity) order; one
        # scatter in event order, so every time sums in the order its
        # events came, as in the dense tensor.
        performed = np.zeros(len(regions) * len(activities), dtype=bool)
        performed[cells] = True
        row_of = np.cumsum(performed) - 1
        rows = np.zeros((np.count_nonzero(performed), n_ranks))
        np.add.at(rows.reshape(-1), row_of[cells] * n_ranks
                  + ranks[counted], durations[counted])
        t_ij = np.zeros(performed.shape)
        t_ij[performed] = rows.max(axis=1)
        t_ij = t_ij.reshape(len(regions), len(activities))
        total_time = max(0.0, float(clipped_end.max()), float(t_ij.sum()))
        if total_time <= 0.0:
            # A measurement set's T must be positive.
            raise MeasurementError("total_time must be a positive number")
        window = cls.__new__(cls)
        window.__dict__.update(begin=begin, end=end, regions=regions,
                               activities=activities, t_ij=t_ij, rows=rows,
                               total_time=total_time, _measurements=None)
        return window

    @property
    def measurements(self) -> MeasurementSet:
        """The window's profile as a measurement set: the one it was
        made from, or a new dense ``(N, K, P)`` tensor scattered from
        the rows."""
        if self._measurements is not None:
            return self._measurements
        times = np.zeros(self.t_ij.shape + self.rows.shape[1:])
        times[self.t_ij > 0.0] = self.rows
        return MeasurementSet(times, regions=self.regions,
                              activities=self.activities
                              ).with_total_time(self.total_time)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.begin + self.end)
