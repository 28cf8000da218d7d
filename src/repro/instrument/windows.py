"""Windowed profiles: slicing a trace into time intervals.

A single profile averages away *dynamic* behavior — a program whose
imbalance grows over time looks moderately imbalanced overall.  This
module slices a trace into consecutive time windows and aggregates each
window separately, producing the per-interval measurement sets that
:mod:`repro.core.temporal` analyzes for trends.

Events spanning a window boundary are split proportionally: the portion
of the interval inside each window is attributed to that window, so the
windowed tensors sum (over windows) to the whole-trace tensor exactly.

A window is one more axis of the profile's accumulation: after a pass
that fixes the extent and layout, :func:`fold_windows` bins the events
with :class:`~repro.core.online.WindowedAccumulator`.

Windows are anchored at the trace's actual ``[begin, end]`` extent, not
at t=0: a trace whose first event starts at ``t0 > 0`` (a salvaged
suffix, a replayed segment) gets ``n`` equal windows of the occupied
span rather than empty leading windows and misaligned phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Iterable, List, Optional, Sequence, Tuple)

from ..core.measurements import MeasurementSet
from ..core.online import OnlineAccumulator, WindowedAccumulator
from ..errors import TraceError
from .columns import EventColumns


@dataclass(frozen=True)
class Window:
    """One time window of a trace with its aggregated profile."""

    begin: float
    end: float
    measurements: MeasurementSet

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.begin + self.end)


def equal_edges(begin: float, end: float, n_windows: int) -> List[float]:
    """``n_windows`` equal slices of the extent ``[begin, end]``.

    Anchored at the actual first event time, not t=0; the final edge is
    pinned to the exact trace end so the last sliver of every event
    survives the float arithmetic.
    """
    if n_windows < 1:
        raise TraceError("need at least one window")
    span = end - begin
    if span <= 0.0:
        raise TraceError("trace spans no time")
    edges = [begin + span * k / n_windows for k in range(n_windows)]
    edges.append(end)
    return edges


def fold_windows(chunks: Iterable[EventColumns],
                 n_windows: Optional[int] = None, *,
                 boundaries: Optional[Sequence[float]] = None,
                 regions: Optional[Sequence[str]] = None,
                 activities: Optional[Sequence[str]] = None,
                 reread: Optional[Callable[[], Iterable[EventColumns]]]
                 = None) -> Tuple[List[Window], OnlineAccumulator]:
    """Window a chunk stream in two passes; returns the windows and the
    pass-1 accumulator.

    Pass 1 fixes the extent (``n_windows`` equal edges, unless explicit
    ``boundaries`` are given) and the whole trace's layout, so every
    window has the same rows and columns.  Pass 2 bins the chunks held
    from pass 1 — or, with ``reread``, the chunks that callable
    returns, so no chunk outlives its pass.
    """
    held: List[EventColumns] = []
    scout = OnlineAccumulator(regions=regions)
    for chunk in chunks:
        scout.update(chunk)
        if reread is None:
            held.append(chunk)
    if scout.n_events == 0:
        raise TraceError("cannot window an empty trace")
    if boundaries is None:
        boundaries = equal_edges(scout.begin, scout.elapsed, n_windows)
    regions = scout.regions()
    if not regions:
        raise TraceError("trace contains no annotated regions")
    if activities is None:
        activities = scout.activities()
    binner = WindowedAccumulator(boundaries, regions, activities,
                                 scout.n_ranks)
    binner.consume(held if reread is None else reread())
    return binner.finalize(), scout


def window_profiles_at(tracer, boundaries: Sequence[float],
                       regions: Optional[Sequence[str]] = None,
                       activities: Optional[Sequence[str]] = None
                       ) -> List[Window]:
    """Profile the trace between explicit time boundaries.

    ``boundaries`` are strictly increasing times; window k covers
    ``[boundaries[k], boundaries[k+1])``.  Use this to align windows
    with known phase boundaries (e.g. time-step starts) instead of the
    equal slicing of :func:`window_profiles`.
    """
    return fold_windows(tracer, boundaries=boundaries,
                        regions=regions, activities=activities)[0]


def window_profiles(tracer, n_windows: int,
                    regions: Optional[Sequence[str]] = None,
                    activities: Optional[Sequence[str]] = None
                    ) -> List[Window]:
    """Slice a trace into ``n_windows`` equal time windows and profile
    each.

    Windows cover the trace's occupied extent ``[begin, end]`` — a
    trace starting at ``t0 > 0`` gets no empty leading windows.  Region
    and activity orders are fixed across windows (by default: the whole
    trace's), so the per-window measurement sets are directly
    comparable.  Windows containing no events are dropped.  ``tracer``
    is a :class:`~repro.instrument.Tracer` or an iterable of column
    chunks.
    """
    return fold_windows(tracer, n_windows, regions=regions,
                        activities=activities)[0]
