"""Pattern classification behind the paper's Figures 1 and 2.

The figures plot, for each loop, one cell per processor, colored by where
the processor's wall clock time falls within the loop's range:

* ``MAX``   — the largest time of the loop;
* ``MIN``   — the smallest time;
* ``UPPER`` — within the upper 15% interval of the range (excluding the
  maximum itself);
* ``LOWER`` — within the lower 15% interval (excluding the minimum);
* ``MID``   — everything else (drawn blank in the paper).

The paper reads the figures quantitatively in two places: on loop 4 the
computation times of 5 of the 16 processors fall in the upper 15%
interval, and on loop 6 the times of 11 of 16 processors fall in the
lower 15% interval.  :func:`band_codes` reproduces that categorization
for every data set of a tensor at once, as one int8 array of positions
in :data:`BANDS`; :func:`classify` labels one data set, and
:func:`pattern_grid` applies it to one activity of a measurement set.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Sequence, Tuple

import numpy as np

from ..errors import MeasurementError
from .measurements import MeasurementSet


class Band(Enum):
    """Category of one processor's time within a loop's range."""

    MAX = "max"
    MIN = "min"
    UPPER = "upper 15%"
    LOWER = "lower 15%"
    MID = "mid"


#: The bands in code order: a band code is a position in this tuple.
BANDS: Tuple[Band, ...] = tuple(Band)
_CODE: Dict[Band, int] = {band: code for code, band in enumerate(BANDS)}

#: Width of the upper/lower intervals as a fraction of the range.
BAND_FRACTION = 0.15


def band_codes(times: np.ndarray,
               band_fraction: float = BAND_FRACTION) -> np.ndarray:
    """Band code of every value, each last-axis row one data set.

    Returns an int8 array of ``times``' shape holding positions in
    :data:`BANDS`.  Ties for the extremes are all ``MAX``/``MIN``; a
    constant row (an idle cell included) is all ``MID``.  ``times``
    must be finite; callers validate it.
    """
    if not 0.0 < band_fraction < 0.5:
        raise MeasurementError("band_fraction must lie in (0, 0.5)")
    low = times.min(axis=-1, keepdims=True)
    high = times.max(axis=-1, keepdims=True)
    span = high - low
    return np.select(
        [span <= 0.0, times == high, times == low,
         times >= high - band_fraction * span,
         times <= low + band_fraction * span],
        [np.int8(_CODE[band]) for band in
         (Band.MID, Band.MAX, Band.MIN, Band.UPPER, Band.LOWER)],
        default=np.int8(_CODE[Band.MID]))


def _labels(codes: np.ndarray) -> Tuple[Band, ...]:
    return tuple(BANDS[code] for code in codes.tolist())


def classify(values: Sequence[float],
             band_fraction: float = BAND_FRACTION) -> Tuple[Band, ...]:
    """Classify each value of a data set into its band.

    Ties for the extremes are all labelled ``MAX``/``MIN``.  A constant
    data set is entirely ``MAX`` ties — by convention we report it as all
    ``MID`` (a flat row in the figure: perfectly balanced).
    """
    data = np.asarray(values, dtype=float)
    if data.ndim != 1 or data.size == 0:
        raise MeasurementError("expected a non-empty 1-d data set")
    if not np.all(np.isfinite(data)):
        raise MeasurementError("data set contains non-finite values")
    return _labels(band_codes(data, band_fraction))


def band_counts(bands: Sequence[Band]) -> Dict[Band, int]:
    """Histogram of band labels."""
    counts = {band: 0 for band in Band}
    for band in bands:
        counts[band] += 1
    return counts


@dataclass(frozen=True, eq=False)
class PatternGrid:
    """Band classification of one activity across regions and processors."""

    activity: str
    #: Regions that perform the activity, in measurement order.
    regions: Tuple[str, ...]
    #: One int8 row of band codes (positions in :data:`BANDS`) per
    #: listed region: views of the classified tensor.
    codes: Tuple[np.ndarray, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternGrid):
            return NotImplemented
        return (self.activity, self.regions, self.rows) == \
            (other.activity, other.regions, other.rows)

    def __hash__(self) -> int:
        return hash((self.activity, self.regions, self.rows))

    @property
    def rows(self) -> Tuple[Tuple[Band, ...], ...]:
        """One row of band labels per listed region."""
        return tuple(_labels(row) for row in self.codes)

    def _codes_of(self, region: str) -> np.ndarray:
        try:
            index = self.regions.index(region)
        except ValueError:
            raise MeasurementError(
                f"region {region!r} does not perform {self.activity!r}") from None
        return self.codes[index]

    def row(self, region: str) -> Tuple[Band, ...]:
        """Band row of one region."""
        return _labels(self._codes_of(region))

    def count(self, region: str, band: Band) -> int:
        """Number of processors of a region in the given band."""
        return int(np.count_nonzero(self._codes_of(region) == _CODE[band]))

    def balance_score(self) -> float:
        """Fraction of cells in the MID band — a crude 'how flat does the
        figure look' summary (1.0 = perfectly balanced everywhere)."""
        total = sum(row.size for row in self.codes)
        mid = sum(int(np.count_nonzero(row == _CODE[Band.MID]))
                  for row in self.codes)
        return mid / total if total else 1.0


def _grid(measurements: MeasurementSet, j: int, codes: np.ndarray,
          performed: np.ndarray) -> PatternGrid:
    """The grid of activity ``j`` over its ``(N, P)`` band codes and
    its ``(N,)`` performed mask."""
    codes.flags.writeable = False     # rows are views: keep them shared
    return PatternGrid(
        activity=measurements.activities[j],
        regions=tuple(region for region, done
                      in zip(measurements.regions, performed) if done),
        codes=tuple(codes[i] for i in np.flatnonzero(performed)))


def pattern_grid(measurements: MeasurementSet, activity: str,
                 band_fraction: float = BAND_FRACTION) -> PatternGrid:
    """Classify the per-processor times of one activity, region by region.

    Only regions that perform the activity appear — the paper's figures
    omit the others.
    """
    j = measurements.activity_index(activity)
    return _grid(measurements, j,
                 band_codes(measurements.times[:, j], band_fraction),
                 measurements.performed[:, j])


def _pattern_grids(measurements: MeasurementSet) -> Tuple[PatternGrid, ...]:
    """The grid of every performed activity, in measurement order.

    The whole ``(N, K, P)`` tensor is classified once; every grid row is
    a view of that one int8 array.
    """
    codes = band_codes(measurements.times)
    performed = measurements.performed
    return tuple(_grid(measurements, j, codes[:, j], performed[:, j])
                 for j in np.flatnonzero(performed.any(axis=0)))
