"""Windowed profiles: slicing a trace into time intervals.

A single profile averages away *dynamic* behavior — a program whose
imbalance grows over time looks moderately imbalanced overall.  This
module slices a trace into consecutive time windows and aggregates each
window separately, producing the per-interval measurement sets that
:mod:`repro.core.temporal` analyzes for trends.

Events spanning a window boundary are split proportionally: the portion
of the interval inside each window is attributed to that window, so the
windowed tensors sum (over windows) to the whole-trace tensor exactly.

A window is one more axis of the profile's accumulation, built one
window at a time: :func:`fold_windows` folds the chunks once into a
:class:`~repro.core.online.TraceLayout`, which fixes the extent and
layout without summing anything, and keeps only each event's binning
columns — its (region, activity) pair, rank, begin and end, 18 to 24
bytes.  The windows it returns are then built on demand, as they are
asked for.  A window holds its profile packed: the ``(N, K)``
``t_ij`` matrix and the ``(M, P)`` rows of its ``M`` performed cells,
which is all its analysis reads, so a window costs its performed
cells, not ``N * K * P``, and a temporal run holds one window at a
time, whatever the window count.  The dense ``(N, K, P)``
:attr:`~repro.core.window.Window.measurements` is built from the rows
only when asked for.

Windows are anchored at the trace's actual ``[begin, end]`` extent, not
at t=0: a trace whose first event starts at ``t0 > 0`` (a salvaged
suffix, a replayed segment) gets ``n`` equal windows of the occupied
span rather than empty leading windows and misaligned phases.
"""

from __future__ import annotations

from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..core.online import OUTSIDE_REGION, TraceLayout
from ..core.window import Window
from ..errors import MeasurementError, TraceError
from ..obs import spans as obspans
from .columns import EventColumns


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


#: Most events one slab of binning columns holds, so a slab's sort
#: order fits 16 bits.
SLAB_EVENTS = 1 << 16


def _narrowest(top: int) -> np.dtype:
    """The narrowest integer type of a slab column that holds 0..``top``."""
    return np.dtype(next(kind for kind in (np.uint8, np.uint16, np.int32,
                                           np.int64)
                         if top <= np.iinfo(kind).max))


class _Slab:
    """The binning columns of up to :data:`SLAB_EVENTS` consecutive
    events — (region, activity) pair code, rank, begin and end — filled
    in place as chunks come.  The columns are sized to the slab's first
    piece of a chunk, so a one-chunk trace holds no spare capacity, and
    grow once, to full capacity, when a second piece comes.

    Once the edges are known, :meth:`sort` orders the slab's events by
    the first window they can overlap (stably, so in event order within
    it), and :meth:`overlap` then hands out one window's events after
    another, carrying an event that overlaps later windows into them.
    """

    def __init__(self, types: Tuple[np.dtype, ...]) -> None:
        self.code, self.rank = np.empty(0, types[0]), np.empty(0, types[1])
        self.begin, self.end = np.empty(0), np.empty(0)
        self.size = 0

    @property
    def columns(self) -> Tuple[np.ndarray, ...]:
        return self.code, self.rank, self.begin, self.end

    @property
    def types(self) -> Tuple[np.dtype, ...]:
        return self.code.dtype, self.rank.dtype

    def takes(self, types: Tuple[np.dtype, ...]) -> bool:
        """Whether the slab has room, and types wide enough, for events
        whose codes and ranks need ``types``."""
        return (self.size < SLAB_EVENTS
                and all(np.can_cast(need, have)
                        for need, have in zip(types, self.types)))

    def fill(self, columns: Tuple[np.ndarray, ...], offset: int) -> int:
        """Append ``columns`` from ``offset`` on until the slab is full;
        returns the offset reached."""
        take = min(SLAB_EVENTS - self.size, len(columns[0]) - offset)
        if self.size + take > len(self.code):
            capacity = SLAB_EVENTS if self.size else take
            for slab in self.columns:
                slab.resize(capacity, refcheck=False)
        for slab, column in zip(self.columns, columns):
            slab[self.size:self.size + take] = column[offset:offset + take]
        self.size += take
        return offset + take

    def sort(self, edges: np.ndarray) -> None:
        # The first window an event can overlap, by binary search on the
        # edges (one past the last for an event after them), narrowed
        # before the sort so that its int64 order is the one full-width
        # array alive.
        first = np.searchsorted(edges, self.begin[:self.size],
                                side="right")
        first -= 1
        np.maximum(first, 0, out=first)
        first = first.astype(_narrowest(len(edges)))
        self.order = np.argsort(first, kind="stable").astype(np.uint16)
        self.starts = [0, *np.bincount(first, minlength=len(edges))
                       .cumsum().tolist()]
        self.carry = self.order[:0]

    def overlap(self, edges: np.ndarray, w: int
                ) -> Optional[Tuple[np.ndarray, ...]]:
        """The pair codes, ranks, clipped durations and clipped ends of
        the slab's events that overlap window ``w`` for a positive time,
        in event order (None when no event can).  Windows must be asked
        for in order."""
        if self.starts[w] == self.starts[w + 1] and not self.carry.size:
            return None
        fresh = self.order[self.starts[w]:self.starts[w + 1]]
        events = (np.sort(np.concatenate((self.carry, fresh)))
                  if self.carry.size else fresh)
        end = self.end[events]
        self.carry = events[end > edges[w + 1]]
        clipped_end = np.minimum(end, edges[w + 1])
        durations = clipped_end - np.maximum(self.begin[events], edges[w])
        overlap = durations > 0.0
        events = events[overlap]
        return (self.code[events], self.rank[events], durations[overlap],
                clipped_end[overlap])


class _BinningColumns:
    """Every event's binning columns, in slabs: 18 to 24 bytes an
    event, plus the unfilled rest of the last slab.  Pair codes and
    ranks take the narrowest integer type that holds them (a byte each
    on a trace with fewer than 256 of either); a chunk that needs wider
    ones than the last slab has opens the next slab, with its types
    widened."""

    def __init__(self) -> None:
        #: (region, activity) pair -> its code, in order of first
        #: appearance.
        self.pairs: Dict[Tuple[str, str], int] = {}
        self.slabs: List[_Slab] = []

    def _codes(self, chunk: EventColumns) -> np.ndarray:
        """Per event, the code of its (region, activity) pair; unseen
        pairs get the next codes."""
        width = len(chunk.names)
        keys = chunk.region.astype(np.int64) * width + chunk.activity
        unique = np.unique(keys, return_index=True)[0]
        codes = [self.pairs.setdefault((chunk.names[key // width],
                                        chunk.names[key % width]),
                                       len(self.pairs))
                 for key in unique.tolist()]
        return np.array(codes, dtype=np.int32)[np.searchsorted(unique,
                                                               keys)]

    def add(self, chunk: EventColumns) -> None:
        """Keep a chunk's binning columns.  Refuses an event whose times
        are not finite or that ends before it begins: the one check of
        the times every window is cut from (its pieces are then finite
        and positive)."""
        if not len(chunk):
            return
        if not (np.isfinite(chunk.begin).all()
                and np.isfinite(chunk.end).all()):
            raise TraceError("event times must be finite")
        if (chunk.end < chunk.begin).any():
            raise TraceError("an event ends before it begins")
        columns = (self._codes(chunk), chunk.rank, chunk.begin, chunk.end)
        types = (_narrowest(len(self.pairs) - 1),
                 _narrowest(int(chunk.rank.max())))
        offset = 0
        while offset < len(chunk):
            if not self.slabs or not self.slabs[-1].takes(types):
                if self.slabs:
                    types = tuple(map(np.promote_types, types,
                                      self.slabs[-1].types))
                self.slabs.append(_Slab(types))
            offset = self.slabs[-1].fill(columns, offset)

    def sort(self, edges: np.ndarray) -> None:
        for slab in self.slabs:
            slab.sort(edges)

    def overlap(self, edges: np.ndarray, w: int
                ) -> Optional[Tuple[np.ndarray, ...]]:
        """:meth:`_Slab.overlap` over every slab, in event order."""
        parts = [part for part in (slab.overlap(edges, w)
                                   for slab in self.slabs)
                 if part is not None]
        if not parts:
            return None
        return tuple(np.concatenate(column) for column in zip(*parts))


def _check_edges(boundaries: Sequence[float]) -> List[float]:
    edges = [float(value) for value in boundaries]
    if len(edges) < 2:
        raise TraceError("need at least two boundaries")
    if any(later <= earlier for earlier, later in zip(edges, edges[1:])):
        raise TraceError("boundaries must be strictly increasing")
    return edges


def fold_windows(chunks: Iterable[EventColumns],
                 n_windows: Optional[int] = None, *,
                 boundaries: Optional[Sequence[float]] = None,
                 regions: Optional[Sequence[str]] = None,
                 activities: Optional[Sequence[str]] = None
                 ) -> Tuple[Iterator[Window], TraceLayout]:
    """Window a chunk stream; returns the windows, built on demand, and
    the layout of the one pass over the chunks (event count, extent,
    labels).

    That pass fixes the extent (``n_windows`` equal edges, unless
    explicit ``boundaries`` are given) and the whole trace's layout, so
    every window has the same rows and columns, and checks every
    event's times once.  Iterating the windows bins each in turn, in a
    ``window_bin`` span, and drops the unoccupied ones and those with
    an activity missing from a fixed ``activities``; it raises
    :class:`~repro.errors.TraceError` at the end when it kept none.  A
    window's ``T`` is the largest of 0, its last clipped event end and
    its covered time.
    """
    scout = TraceLayout(regions=regions)
    kept = _BinningColumns()
    for chunk in chunks:
        if len(chunk):
            kept.add(chunk)
            scout.update(chunk)
    chunk = None        # the last chunk is not held through the windows
    if scout.n_events == 0:
        raise TraceError("cannot window an empty trace")
    if boundaries is None:
        boundaries = equal_edges(scout.begin, scout.elapsed, n_windows)
    regions = scout.regions()
    if not regions:
        raise TraceError("trace contains no annotated regions")
    activities = (scout.activities() if activities is None
                  else tuple(activities))
    n_ranks = scout.n_ranks
    edges = _check_edges(boundaries)
    edge_array = np.asarray(edges)
    kept.sort(edge_array)

    # Each pair's flat (region, activity) cell: -1 for time the profile
    # skips, -2 for an indexed region with an activity missing from the
    # layout, which drops every window it touches.
    rows = {name: i for i, name in enumerate(regions)
            if name != OUTSIDE_REGION}
    columns = {name: j for j, name in enumerate(activities)}
    cell_of = np.array(
        [-1 if region not in rows else -2 if activity not in columns
         else rows[region] * len(activities) + columns[activity]
         for region, activity in kept.pairs], dtype=np.intp)
    n_cells = len(regions) * len(activities)

    def binned(w: int) -> Optional[Window]:
        """Window ``w``, or None when it is dropped."""
        found = kept.overlap(edge_array, w)
        if found is None:
            return None
        codes, ranks, durations, clipped_end = found
        cells = cell_of[codes]
        if not cells.size or (cells == -2).any():
            return None
        counted = cells >= 0
        cells = cells[counted]
        # Each performed cell's row, in (region, activity) order; one
        # scatter in event order, so every time sums in the order its
        # events came, as in the dense tensor.
        performed = np.zeros(n_cells, dtype=bool)
        performed[cells] = True
        row_of = np.cumsum(performed) - 1
        packed = np.zeros((np.count_nonzero(performed), n_ranks))
        np.add.at(packed.reshape(-1), row_of[cells] * n_ranks
                  + ranks[counted], durations[counted])
        t_ij = np.zeros(n_cells)
        t_ij[performed] = packed.max(axis=1)
        t_ij = t_ij.reshape(len(regions), len(activities))
        total = max(0.0, float(clipped_end.max()), float(t_ij.sum()))
        if total <= 0.0:
            # A measurement set's T must be positive.
            raise MeasurementError("total_time must be a positive number")
        return Window._binned(edges[w], edges[w + 1], regions, activities,
                              t_ij, packed, total)

    def built() -> Iterator[Window]:
        n_kept = 0
        for w in range(len(edges) - 1):
            with obspans.span("window_bin", activity="window", window=w):
                window = binned(w)
            if window is not None:
                n_kept += 1
                yield window
                del window      # the next window is built without it
        if not n_kept:
            raise TraceError("no window contains annotated events")

    return built(), scout


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
    return list(fold_windows(tracer, boundaries=boundaries,
                             regions=regions, activities=activities)[0])


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
    return list(fold_windows(tracer, n_windows, regions=regions,
                             activities=activities)[0])
