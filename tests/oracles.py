"""Scalar reference implementations the vectorized code is tested against.

These are the historical per-event loops, kept only as test oracles:

* :func:`scalar_profile` — sum event durations into ``t_ijp`` one event
  at a time;
* :func:`rescan_window_profiles` / :func:`rescan_window_profiles_at` —
  clip the full event list against every window in turn
  (O(windows x events)) and profile each slice with the scalar loop;
* :class:`WindowedAccumulator` and :func:`stack_fold_windows` — bin
  every window of a trace into one ``(W, N, K, P)`` stack at once, the
  windowing the one-window-at-a-time builder replaced;
* :func:`scalar_read_binary` — decode a binary trace one ``struct``
  record at a time, salvaging the valid prefix;
* :data:`SCALAR_INDICES` and :func:`scalar_imbalance_time` — the
  indices of dispersion written for one data set at a time, and
  :func:`scalar_dispersion_matrix`, the per-cell loop that applies one
  of them to every performed ``(region, activity)`` cell;
* :func:`whole_tensor_matrix` and
  :func:`whole_tensor_processor_dispersion` — the batch engine's
  kernels as whole-tensor expressions, one packed ``(M, P)`` matrix of
  every performed cell and one standardized ``(N, K, P)`` tensor, as
  before the engine walked blocks of regions;
* :class:`ObjectTracer` and the ``object_*`` functions — the trace
  recorder as a list of :class:`TraceEvent` objects, with the filters,
  the linter and the JSONL writer that walked it one object at a time;
* :func:`numpy_kmeans` — k-means with its k-means++ seeds drawn from a
  ``numpy.random`` Generator, as before the seeding moved to the
  standard library's ``random.Random``;
* :func:`scalar_classify` — the pattern bands of one data set, one
  value at a time;
* :func:`loop_detect_phases` — change-point segmentation as the O(n^2)
  double loop over (start, stop) pairs.
"""

from __future__ import annotations

import gzip
import json
import struct
import warnings
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.clustering import KMeansResult, _converge, _validate_points
from repro.core.dispersion import get_index
from repro.core.measurements import DEFAULT_ACTIVITIES, MeasurementSet
from repro.core.online import OnlineAccumulator, _as_columns, _index
from repro.core.patterns import BAND_FRACTION, Band
from repro.core.standardize import standardize_over_processors
from repro.core.temporal import Phase
from repro.errors import (ClusteringError, DispersionError, MeasurementError,
                          TraceError, TraceWarning)
from repro.instrument import (EVENT_KINDS, FORMAT_NAME, FORMAT_VERSION,
                              OUTSIDE_REGION, LintIssue, TraceEvent, Tracer,
                              Window, equal_edges)


def scalar_profile(tracer: Tracer,
                   regions: Optional[Sequence[str]] = None,
                   activities: Optional[Sequence[str]] = None,
                   aggregation: str = "max",
                   n_ranks: Optional[int] = None) -> MeasurementSet:
    """Per-event reference for :func:`repro.instrument.profile`."""
    if len(tracer) == 0:
        raise TraceError("cannot profile an empty trace")
    region_names = tuple(regions) if regions is not None else tracer.regions()
    if not region_names:
        raise TraceError("trace contains no annotated regions")
    if activities is not None:
        activity_names = tuple(activities)
    else:
        seen = tracer.activities()
        activity_names = tuple(
            [name for name in DEFAULT_ACTIVITIES if name in seen] +
            [name for name in seen if name not in DEFAULT_ACTIVITIES])
    if n_ranks is None:
        n_ranks = tracer.n_ranks
    elif n_ranks < tracer.n_ranks:
        raise TraceError(
            f"n_ranks={n_ranks} but the trace mentions rank "
            f"{tracer.n_ranks - 1}")
    region_index = {name: i for i, name in enumerate(region_names)}
    activity_index = {name: j for j, name in enumerate(activity_names)}

    tensor = np.zeros((len(region_names), len(activity_names), n_ranks))
    for event in tracer.events:
        if event.region == OUTSIDE_REGION:
            continue
        i = region_index.get(event.region)
        if i is None:
            continue    # caller restricted the region set
        j = activity_index.get(event.activity)
        if j is None:
            raise TraceError(
                f"trace contains activity {event.activity!r} not in "
                f"{activity_names}")
        tensor[i, j, event.rank] += event.duration

    preliminary = MeasurementSet(tensor, regions=region_names,
                                 activities=activity_names,
                                 aggregation=aggregation)
    total = max(tracer.elapsed, preliminary.covered_time)
    return preliminary.with_total_time(total)


def _clip(event: TraceEvent, begin: float, end: float) -> Optional[TraceEvent]:
    clipped_begin = max(event.begin, begin)
    clipped_end = min(event.end, end)
    if clipped_end <= clipped_begin:
        return None
    return TraceEvent(rank=event.rank, region=event.region,
                      activity=event.activity, begin=clipped_begin,
                      end=clipped_end, kind=event.kind, nbytes=event.nbytes,
                      partner=event.partner)


def _resolve_layout(tracer: Tracer, regions: Optional[Sequence[str]],
                    activities: Optional[Sequence[str]]
                    ) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The (region, activity) layout of the whole trace, so sparse
    windows do not change the row/column order."""
    region_names = tuple(regions) if regions is not None else tracer.regions()
    if not region_names:
        raise TraceError("trace contains no annotated regions")
    if activities is None:
        return region_names, scalar_profile(tracer,
                                            regions=region_names).activities
    return region_names, tuple(activities)


def _rescan_windows(tracer: Tracer, edges: Sequence[float],
                    region_names: Tuple[str, ...],
                    activity_names: Tuple[str, ...]) -> List[Window]:
    windows: List[Window] = []
    for begin, end in zip(edges, edges[1:]):
        sliced = Tracer()
        for event in tracer.events:
            clipped = _clip(event, begin, end)
            if clipped is not None:
                sliced.add(clipped)
        if len(sliced) == 0:
            continue
        try:
            measurements = scalar_profile(sliced, regions=region_names,
                                          activities=activity_names,
                                          n_ranks=tracer.n_ranks)
        except TraceError:
            continue        # window's events do not fit the layout
        windows.append(Window(begin=begin, end=end,
                              measurements=measurements))
    if not windows:
        raise TraceError("no window contains annotated events")
    return windows


def rescan_window_profiles_at(tracer: Tracer, boundaries: Sequence[float],
                              regions: Optional[Sequence[str]] = None,
                              activities: Optional[Sequence[str]] = None
                              ) -> List[Window]:
    """Reference rescan for explicit boundaries."""
    edges = [float(value) for value in boundaries]
    if len(edges) < 2:
        raise TraceError("need at least two boundaries")
    if any(later <= earlier for earlier, later in zip(edges, edges[1:])):
        raise TraceError("boundaries must be strictly increasing")
    if len(tracer) == 0:
        raise TraceError("cannot window an empty trace")
    return _rescan_windows(tracer, edges,
                           *_resolve_layout(tracer, regions, activities))


def rescan_window_profiles(tracer: Tracer, n_windows: int,
                           regions: Optional[Sequence[str]] = None,
                           activities: Optional[Sequence[str]] = None
                           ) -> List[Window]:
    """Reference rescan for equal slicing."""
    if len(tracer) == 0:
        raise TraceError("cannot window an empty trace")
    edges = equal_edges(tracer.begin, tracer.elapsed, n_windows)
    return _rescan_windows(tracer, edges,
                           *_resolve_layout(tracer, regions, activities))


class WindowedAccumulator:
    """The ``(W, N, K, P)`` stack binner :func:`repro.instrument.windows.
    fold_windows` replaced, kept as its bit-for-bit oracle.

    Requires the window ``edges`` and the (region, activity, rank)
    layout up front (:func:`stack_fold_windows` discovers both with an
    :class:`~repro.core.online.OnlineAccumulator` pass) and bins every
    window's tensor at once, one ``np.add.at`` per chunk over a flat
    ``(window, cell, rank)`` index.
    """

    def __init__(self, edges: Sequence[float],
                 regions: Sequence[str], activities: Sequence[str],
                 n_ranks: int):
        self.edges = [float(value) for value in edges]
        if len(self.edges) < 2:
            raise TraceError("need at least two boundaries")
        if any(later <= earlier
               for earlier, later in zip(self.edges, self.edges[1:])):
            raise TraceError("boundaries must be strictly increasing")
        self.region_names = tuple(regions)
        self.activity_names = tuple(activities)
        if n_ranks < 1:
            raise TraceError("need at least one rank")
        n_windows = len(self.edges) - 1
        self._edge_array = np.asarray(self.edges)
        self._region_ids = {name: i
                            for i, name in enumerate(self.region_names)}
        self._activity_ids = {name: j
                              for j, name in enumerate(self.activity_names)}
        self._tensors = np.zeros((n_windows, len(self.region_names),
                                  len(self.activity_names), n_ranks))
        self._last_end = np.zeros(n_windows)
        self._occupied = np.zeros(n_windows, dtype=bool)
        self._poisoned = np.zeros(n_windows, dtype=bool)
        self._n_events = 0

    @property
    def n_windows(self) -> int:
        return len(self.edges) - 1

    @property
    def n_events(self) -> int:
        return self._n_events

    def update(self, events: Iterable) -> "WindowedAccumulator":
        """Bin one chunk, splitting events across window boundaries
        proportionally.

        Each event finds the window range it can overlap by binary
        search on the edges; the (event, window) pieces, events in
        chunk order, are clipped to their window and scattered.
        """
        chunk = _as_columns(events)
        n_events = len(chunk)
        self._n_events += n_events
        if not n_events:
            return self
        n_windows, n_regions, n_activities, n_ranks = self._tensors.shape
        edges = self._edge_array
        rows = _index(self._region_ids, chunk.names, chunk.region,
                      grow=False, skip=OUTSIDE_REGION)
        columns = _index(self._activity_ids, chunk.names, chunk.activity,
                         grow=False)
        # Flattened (region, activity) cell per event; -1 marks events
        # the profile skips, -2 an indexed region with an activity
        # missing from the layout, which drops every window it touches.
        cells = np.where(rows < 0, -1,
                         np.where(columns < 0, -2,
                                  rows * n_activities + columns))

        lo = np.maximum(np.searchsorted(edges, chunk.begin, side="right")
                        - 1, 0)
        hi = np.minimum(np.searchsorted(edges, chunk.end, side="left") - 1,
                        n_windows - 1)
        counts = np.maximum(hi - lo + 1, 0)
        event_of = np.repeat(np.arange(n_events), counts)
        offsets = np.repeat(counts.cumsum() - counts, counts)
        window_of = lo[event_of] + (np.arange(event_of.size) - offsets)
        clipped_end = np.minimum(chunk.end[event_of], edges[window_of + 1])
        durations = clipped_end - np.maximum(chunk.begin[event_of],
                                             edges[window_of])
        overlap = durations > 0.0
        event_of = event_of[overlap]
        window_of = window_of[overlap]
        durations = durations[overlap]

        self._occupied[window_of] = True
        np.maximum.at(self._last_end, window_of, clipped_end[overlap])
        cell_of = cells[event_of]
        self._poisoned[window_of[cell_of == -2]] = True
        counted = cell_of >= 0
        ranks = chunk.rank[event_of[counted]]
        if ranks.size and ranks.max() >= n_ranks:
            raise TraceError(f"trace mentions rank {ranks.max()} but the "
                             f"window layout has {n_ranks} rank(s)")
        targets = ((window_of[counted] * (n_regions * n_activities)
                    + cell_of[counted]) * n_ranks + ranks)
        if not self._tensors.flags.writeable:
            # Copy on write: finalized windows view the stack.
            self._tensors = self._tensors.copy()
        np.add.at(self._tensors.reshape(-1), targets, durations[counted])
        return self

    def consume(self, chunks: Iterable[Iterable]) -> "WindowedAccumulator":
        """Fold an iterator of chunks."""
        for chunk in chunks:
            self.update(chunk)
        return self

    def merge(self, other: "WindowedAccumulator") -> "WindowedAccumulator":
        """Combine two windowed accumulators over the same edges and
        layout into a fresh one (tensors add, extents take max)."""
        if self.edges != other.edges:
            raise TraceError("cannot merge windowed accumulators with "
                             "different edges")
        if (self.region_names != other.region_names
                or self.activity_names != other.activity_names
                or self._tensors.shape != other._tensors.shape):
            raise TraceError("cannot merge windowed accumulators with "
                             "different layouts")
        merged = WindowedAccumulator(self.edges, self.region_names,
                                     self.activity_names,
                                     self._tensors.shape[3])
        merged._tensors = self._tensors + other._tensors
        merged._last_end = np.maximum(self._last_end, other._last_end)
        merged._occupied = self._occupied | other._occupied
        merged._poisoned = self._poisoned | other._poisoned
        merged._n_events = self._n_events + other._n_events
        return merged

    def finalize(self) -> List:
        """The windows: unoccupied and poisoned windows dropped,
        per-window ``T`` the larger of the window's covered time and
        its last event end.  Window tensors are read-only views of the
        stack; a later :meth:`update` copies it first."""
        self._tensors.flags.writeable = False
        windows = []
        for w in range(self.n_windows):
            if not self._occupied[w] or self._poisoned[w]:
                continue
            preliminary = MeasurementSet(self._tensors[w],
                                         regions=self.region_names,
                                         activities=self.activity_names)
            total = max(float(self._last_end[w]), preliminary.covered_time)
            windows.append(Window(begin=self.edges[w],
                                  end=self.edges[w + 1],
                                  measurements=preliminary
                                  .with_total_time(total)))
        if not windows:
            raise TraceError("no window contains annotated events")
        return windows


def stack_fold_windows(chunks: Iterable, n_windows: Optional[int] = None, *,
                       boundaries: Optional[Sequence[float]] = None,
                       regions: Optional[Sequence[str]] = None,
                       activities: Optional[Sequence[str]] = None
                       ) -> List[Window]:
    """Reference for :func:`repro.instrument.windows.fold_windows`: hold
    the chunks through an :class:`OnlineAccumulator` pass that fixes the
    extent and layout, then bin them all into one stack."""
    held = []
    scout = OnlineAccumulator(regions=regions)
    for chunk in chunks:
        scout.update(chunk)
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
    return binner.consume(held).finalize()


_HEADER = struct.Struct("<4sHIQI")
_RECORD = struct.Struct("<IHHddBQi")


def scalar_read_binary(path, on_error: str = "salvage") -> List[TraceEvent]:
    """Per-record reference for :func:`repro.instrument.read_binary_trace`:
    the same events, warning text and strict-mode error.  A record whose
    rank is not below the header's rank count is damage."""
    source = Path(path)
    data = source.read_bytes()
    _, _, ranks, count, table_length = _HEADER.unpack_from(data, 0)
    offset = _HEADER.size
    table = data[offset:offset + table_length]
    names = ([part.decode("utf-8") for part in table.split(b"\x00")]
             if table_length else [])
    offset += table_length
    events: List[TraceEvent] = []

    def salvage(reason: str) -> List[TraceEvent]:
        if on_error == "raise" or not events:
            raise TraceError(f"trace {source}: {reason}")
        warnings.warn(TraceWarning(
            f"trace {source}: {reason}; salvaged the first "
            f"{len(events)} event(s)"))
        return events

    available = len(data) - offset
    for index in range(min(count, available // _RECORD.size)):
        (rank, region_id, activity_id, begin, end, kind_id, nbytes,
         partner) = _RECORD.unpack_from(data, offset + index * _RECORD.size)
        if region_id >= len(names) or activity_id >= len(names):
            return salvage(f"record {index}: name index out of range")
        if kind_id >= len(EVENT_KINDS):
            return salvage(f"record {index}: bad kind {kind_id}")
        if rank >= ranks:
            return salvage(f"record {index}: rank {rank} is not below the "
                           f"header's {ranks} ranks")
        try:
            events.append(TraceEvent(
                rank=rank, region=names[region_id],
                activity=names[activity_id], begin=begin, end=end,
                kind=EVENT_KINDS[kind_id], nbytes=nbytes, partner=partner))
        except TraceError as error:
            return salvage(f"record {index}: {error}")
    expected_bytes = count * _RECORD.size
    if available < expected_bytes \
            or data[offset + expected_bytes:].strip(b"\x00"):
        return salvage(f"truncated: header promises {count} events "
                       f"({expected_bytes} bytes), found {available}")
    return events


def _data_set(values: Sequence[float]) -> np.ndarray:
    data = np.asarray(values, dtype=float)
    if data.ndim != 1:
        raise DispersionError(f"expected a 1-d data set, got shape {data.shape}")
    if data.size == 0:
        raise DispersionError("cannot measure the dispersion of an empty data set")
    if not np.all(np.isfinite(data)):
        raise DispersionError("data set contains non-finite values")
    if not data.any():
        raise DispersionError("data set is all zeros (a dash cell)")
    return data


def scalar_euclidean(values: Sequence[float]) -> float:
    data = _data_set(values)
    return float(np.linalg.norm(data - data.mean()))


def scalar_variance(values: Sequence[float]) -> float:
    return float(_data_set(values).var())


def scalar_cv(values: Sequence[float]) -> float:
    data = _data_set(values)
    mean = data.mean()
    if mean == 0.0:
        raise DispersionError("coefficient of variation undefined for zero mean")
    return float(data.std() / mean)


def scalar_mad(values: Sequence[float]) -> float:
    data = _data_set(values)
    return float(np.abs(data - data.mean()).mean())


def scalar_max(values: Sequence[float]) -> float:
    return float(_data_set(values).max())


def scalar_range(values: Sequence[float]) -> float:
    data = _data_set(values)
    return float(data.max() - data.min())


def scalar_sum(values: Sequence[float]) -> float:
    return float(_data_set(values).sum())


def scalar_gini(values: Sequence[float]) -> float:
    data = _data_set(values)
    if np.any(data < 0.0):
        raise DispersionError("Gini coefficient requires non-negative data")
    total_value = data.sum()
    sorted_data = np.sort(data)
    n = data.size
    ranks = np.arange(1, n + 1)
    return float((2.0 * (ranks * sorted_data).sum() / (n * total_value)) -
                 (n + 1.0) / n)


def scalar_theil(values: Sequence[float]) -> float:
    data = _data_set(values)
    if np.any(data < 0.0):
        raise DispersionError("Theil index requires non-negative data")
    shares = data / data.mean()
    positive = shares[shares > 0.0]
    return float((positive * np.log(positive)).sum() / data.size)


def scalar_imbalance_time(values: Sequence[float]) -> float:
    data = _data_set(values)
    return float(data.max() - data.mean())


#: Every built-in index of dispersion, one data set at a time.
SCALAR_INDICES: Dict[str, Callable[[Sequence[float]], float]] = {
    "euclidean": scalar_euclidean, "variance": scalar_variance,
    "cv": scalar_cv, "mad": scalar_mad, "max": scalar_max,
    "range": scalar_range, "sum": scalar_sum, "gini": scalar_gini,
    "theil": scalar_theil,
}


def scalar_dispersion_matrix(measurements: MeasurementSet,
                             index: str = "euclidean") -> np.ndarray:
    """The (N, K) ``ID_ij`` matrix, one performed cell at a time (nan
    elsewhere).  A built-in index is its scalar oracle; any other
    registered index is called on each cell's data set."""
    index_function = SCALAR_INDICES.get(index) or get_index(index)
    standardized = standardize_over_processors(measurements)
    performed = measurements.performed
    n_regions, n_activities = performed.shape
    matrix = np.full((n_regions, n_activities), np.nan)
    for i in range(n_regions):
        for j in range(n_activities):
            if performed[i, j]:
                matrix[i, j] = index_function(standardized[i, j, :])
    return matrix


def whole_tensor_matrix(measurements: MeasurementSet, function,
                        standardized: bool = True) -> np.ndarray:
    """The (N, K) matrix of a last-axis ``function`` over every
    performed cell's times, packed into one ``(M, P)`` matrix and (where
    ``standardized``) divided row by row by their sums, nan elsewhere."""
    performed = measurements.performed
    cells = measurements.times[performed]
    if standardized:
        cells /= cells.sum(axis=1, keepdims=True)
    matrix = np.full(performed.shape, np.nan)
    matrix[performed] = function(cells)
    return matrix


def whole_tensor_processor_dispersion(measurements: MeasurementSet
                                      ) -> np.ndarray:
    """The (N, P) processor view ``ID_P_ip`` over the whole tensor
    standardized across activities."""
    times = measurements.times
    sums = times.sum(axis=1, keepdims=True)
    safe = np.where(sums > 0.0, sums, 1.0)
    standardized = np.where(sums > 0.0, times / safe, 0.0)
    deviations = standardized - standardized.mean(axis=2, keepdims=True)
    return np.sqrt((deviations ** 2).sum(axis=1))


class ObjectTracer:
    """Reference for :class:`repro.instrument.Tracer`: the events as a
    list of :class:`TraceEvent` objects."""

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []
        self._rank_end: Dict[int, float] = {}
        self._begin: float = float("inf")

    def record(self, rank: int, region: str, activity: str, begin: float,
               end: float, kind: str = "compute", nbytes: int = 0,
               partner: int = -1) -> None:
        self.add(TraceEvent(rank=rank, region=region or OUTSIDE_REGION,
                            activity=activity, begin=begin, end=end,
                            kind=kind, nbytes=nbytes, partner=partner))

    def add(self, event: TraceEvent) -> None:
        self._events.append(event)
        if event.begin < self._begin:
            self._begin = event.begin
        previous = self._rank_end.get(event.rank)
        if previous is None or event.end > previous:
            self._rank_end[event.rank] = event.end

    def extend(self, events: Iterable[TraceEvent]) -> None:
        for event in events:
            self.add(event)

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def n_ranks(self) -> int:
        return max(self._rank_end) + 1 if self._rank_end else 0

    @property
    def begin(self) -> float:
        return self._begin if self._events else 0.0

    @property
    def elapsed(self) -> float:
        return max(self._rank_end.values()) if self._rank_end else 0.0

    def regions(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for event in self._events:
            if event.region != OUTSIDE_REGION and event.region not in seen:
                seen.append(event.region)
        return tuple(seen)

    def activities(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for event in self._events:
            if event.activity not in seen:
                seen.append(event.activity)
        return tuple(seen)

    def events_of(self, rank: int) -> Tuple[TraceEvent, ...]:
        if rank < 0:
            raise TraceError("rank must be non-negative")
        return tuple(event for event in self._events if event.rank == rank)


def _replaced(event: TraceEvent, **fields) -> TraceEvent:
    values = dict(rank=event.rank, region=event.region,
                  activity=event.activity, begin=event.begin, end=event.end,
                  kind=event.kind, nbytes=event.nbytes,
                  partner=event.partner)
    values.update(fields)
    return TraceEvent(**values)


def object_filter_events(tracer: ObjectTracer,
                         predicate: Callable[[TraceEvent], bool]
                         ) -> ObjectTracer:
    result = ObjectTracer()
    result.extend(event for event in tracer.events if predicate(event))
    return result


def object_filter_regions(tracer: ObjectTracer,
                          regions: Sequence[str]) -> ObjectTracer:
    wanted = set(regions)
    return object_filter_events(tracer,
                                lambda event: event.region in wanted)


def object_filter_activities(tracer: ObjectTracer,
                             activities: Sequence[str]) -> ObjectTracer:
    wanted = set(activities)
    return object_filter_events(tracer,
                                lambda event: event.activity in wanted)


def object_filter_ranks(tracer: ObjectTracer,
                        ranks: Sequence[int]) -> ObjectTracer:
    wanted = set(ranks)
    return object_filter_events(tracer, lambda event: event.rank in wanted)


def object_filter_time(tracer: ObjectTracer, begin: float, end: float,
                       clip: bool = True) -> ObjectTracer:
    if end <= begin:
        raise TraceError("time window must have positive length")
    result = ObjectTracer()
    for event in tracer.events:
        clipped = _clip(event, begin, end)
        if clipped is not None:
            result.add(clipped if clip else event)
    return result


def object_shift_time(tracer: ObjectTracer, offset: float) -> ObjectTracer:
    result = ObjectTracer()
    for event in tracer.events:
        if event.begin + offset < 0.0:
            raise TraceError("shift would move an event before time zero")
        result.add(_replaced(event, begin=event.begin + offset,
                             end=event.end + offset))
    return result


def object_relabel_region(tracer: ObjectTracer, old: str,
                          new: str) -> ObjectTracer:
    if not new:
        raise TraceError("new region name must be non-empty")
    result = ObjectTracer()
    for event in tracer.events:
        result.add(event.with_region(new) if event.region == old
                   else event)
    return result


def object_merge(tracers: Iterable[ObjectTracer],
                 rank_offsets: Optional[Sequence[int]] = None
                 ) -> ObjectTracer:
    tracer_list = list(tracers)
    if rank_offsets is not None and len(rank_offsets) != len(tracer_list):
        raise TraceError("need one rank offset per tracer")
    result = ObjectTracer()
    for index, tracer in enumerate(tracer_list):
        offset = rank_offsets[index] if rank_offsets is not None else 0
        if offset < 0:
            raise TraceError("rank offsets must be non-negative")
        for event in tracer.events:
            result.add(_replaced(
                event, rank=event.rank + offset,
                partner=event.partner + offset if event.partner >= 0
                else -1) if offset else event)
    return result


def object_lint_trace(tracer: ObjectTracer) -> Tuple[LintIssue, ...]:
    """Reference for :func:`repro.instrument.lint_trace`: one pass over
    the events per check and one sort per rank."""
    issues: List[LintIssue] = []
    if len(tracer) == 0:
        return ()
    for event in tracer.events:
        if event.begin < 0.0:
            issues.append(LintIssue(
                "negative-time",
                f"rank {event.rank} event begins at {event.begin}"))
    seen_ranks = {event.rank for event in tracer.events}
    for rank in range(tracer.n_ranks):
        if rank not in seen_ranks:
            issues.append(LintIssue(
                "empty-rank", f"rank {rank} has no events"))
    for rank in range(tracer.n_ranks):
        events = sorted(tracer.events_of(rank),
                        key=lambda event: (event.begin, event.end))
        previous_end = 0.0
        previous = None
        for event in events:
            if event.begin < previous_end - 1e-12 and previous is not None:
                issues.append(LintIssue(
                    "overlap",
                    f"rank {rank}: [{previous.begin:.6g}, "
                    f"{previous.end:.6g}] overlaps "
                    f"[{event.begin:.6g}, {event.end:.6g}]"))
            previous_end = max(previous_end, event.end)
            previous = event
    sends: Dict[Tuple[int, int, int], int] = {}
    recvs: Dict[Tuple[int, int, int], int] = {}
    for event in tracer.events:
        if event.partner < 0:
            continue
        if event.kind == "send":
            key = (event.rank, event.partner, event.nbytes)
            sends[key] = sends.get(key, 0) + 1
        elif event.kind in ("recv", "wait"):
            key = (event.partner, event.rank, event.nbytes)
            recvs[key] = recvs.get(key, 0) + 1
    for key, count in sends.items():
        missing = count - recvs.get(key, 0)
        if missing > 0:
            source, destination, nbytes = key
            issues.append(LintIssue(
                "unmatched-send",
                f"{missing} send(s) {source} -> {destination} "
                f"({nbytes} B) without a receive"))
    for key, count in recvs.items():
        missing = count - sends.get(key, 0)
        if missing > 0:
            source, destination, nbytes = key
            issues.append(LintIssue(
                "unmatched-recv",
                f"{missing} receive(s) {source} -> {destination} "
                f"({nbytes} B) without a send"))
    return tuple(issues)


def object_write_trace(path, events: Iterable[TraceEvent]) -> int:
    """Reference for :func:`repro.instrument.write_trace`: one JSON
    object per event object."""
    event_list = list(events)
    ranks = max((event.rank for event in event_list), default=-1) + 1
    target = Path(path)
    opener = gzip.open if target.suffix == ".gz" else open
    with opener(target, "wt", encoding="utf-8") as stream:
        header = {"format": FORMAT_NAME, "version": FORMAT_VERSION,
                  "ranks": ranks, "events": len(event_list)}
        stream.write(json.dumps(header) + "\n")
        for event in event_list:
            record = {"r": event.rank, "g": event.region, "a": event.activity,
                      "b": event.begin, "e": event.end, "k": event.kind,
                      "n": event.nbytes, "p": event.partner}
            stream.write(json.dumps(record) + "\n")
    return len(event_list)


def _numpy_kmeans_plus_plus(data: np.ndarray, k: int,
                            rng: np.random.Generator) -> np.ndarray:
    n_points = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    first = int(rng.integers(n_points))
    centers[0] = data[first]
    closest_sq = ((data - centers[0]) ** 2).sum(axis=1)
    for index in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            choice = int(rng.integers(n_points))
        else:
            probabilities = closest_sq / total
            choice = int(rng.choice(n_points, p=probabilities))
        centers[index] = data[choice]
        distance_sq = ((data - centers[index]) ** 2).sum(axis=1)
        closest_sq = np.minimum(closest_sq, distance_sq)
    return centers


def numpy_kmeans(points: Sequence, k: int, *, restarts: int = 10,
                 max_iterations: int = 300, tolerance: float = 1e-10,
                 refine: bool = True, seed: int = 0) -> KMeansResult:
    """Reference for :func:`repro.core.kmeans`: the same restarts, Lloyd
    iterations and refinement, seeded by ``np.random.default_rng``."""
    data = _validate_points(points)
    n_points = data.shape[0]
    if not 1 <= k <= n_points:
        raise ClusteringError(
            f"k must lie in [1, {n_points}] for {n_points} points, got {k}")
    rng = np.random.default_rng(seed)
    best: Optional[KMeansResult] = None
    for _ in range(restarts):
        candidate = _converge(data, _numpy_kmeans_plus_plus(data, k, rng),
                              max_iterations=max_iterations,
                              tolerance=tolerance, refine=refine)
        if best is None or candidate.inertia < best.inertia - 1e-12:
            best = candidate
    return best


def scalar_classify(values: Sequence[float],
                    band_fraction: float = BAND_FRACTION
                    ) -> Tuple[Band, ...]:
    """Reference for :func:`repro.core.band_codes`: each value's band,
    one comparison chain per value."""
    data = np.asarray(values, dtype=float)
    if not 0.0 < band_fraction < 0.5:
        raise MeasurementError("band_fraction must lie in (0, 0.5)")
    low = float(data.min())
    high = float(data.max())
    span = high - low
    if span <= 0.0:
        return tuple(Band.MID for _ in range(data.size))
    upper_cut = high - band_fraction * span
    lower_cut = low + band_fraction * span
    bands = []
    for value in data:
        if value == high:
            bands.append(Band.MAX)
        elif value == low:
            bands.append(Band.MIN)
        elif value >= upper_cut:
            bands.append(Band.UPPER)
        elif value <= lower_cut:
            bands.append(Band.LOWER)
        else:
            bands.append(Band.MID)
    return tuple(bands)


def loop_detect_phases(series: Sequence[float],
                       penalty: Optional[float] = None,
                       min_size: int = 1) -> Tuple[Phase, ...]:
    """Reference for :func:`repro.core.detect_phases`: the dynamic
    program as a double loop with scalar numpy indexing."""
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

    def segment_cost(start: int, stop: int) -> float:
        total = prefix[stop] - prefix[start]
        total_sq = prefix_sq[stop] - prefix_sq[start]
        return total_sq - total * total / (stop - start)

    best = np.full(n + 1, np.inf)
    best[0] = -float(penalty)
    previous = np.zeros(n + 1, dtype=int)
    for stop in range(min_size, n + 1):
        for start in range(0, stop - min_size + 1):
            if not np.isfinite(best[start]):
                continue
            cost = best[start] + penalty + segment_cost(start, stop)
            if cost < best[stop] - 1e-12:
                best[stop] = cost
                previous[stop] = start
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
