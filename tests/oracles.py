"""Scalar reference implementations the vectorized code is tested against.

These are the historical per-event loops, kept only as test oracles:

* :func:`scalar_profile` — sum event durations into ``t_ijp`` one event
  at a time;
* :func:`rescan_window_profiles` / :func:`rescan_window_profiles_at` —
  clip the full event list against every window in turn
  (O(windows x events)) and profile each slice with the scalar loop;
* :func:`scalar_read_binary` — decode a binary trace one ``struct``
  record at a time, salvaging the valid prefix;
* :data:`SCALAR_INDICES` and :func:`scalar_imbalance_time` — the
  indices of dispersion written for one data set at a time, and
  :func:`scalar_dispersion_matrix`, the per-cell loop that applies one
  of them to every performed ``(region, activity)`` cell;
* :class:`ObjectTracer` and the ``object_*`` functions — the trace
  recorder as a list of :class:`TraceEvent` objects, with the filters,
  the linter and the JSONL writer that walked it one object at a time.
"""

from __future__ import annotations

import gzip
import json
import struct
import warnings
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dispersion import get_index
from repro.core.measurements import DEFAULT_ACTIVITIES, MeasurementSet
from repro.core.standardize import standardize_over_processors
from repro.errors import DispersionError, TraceError, TraceWarning
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
