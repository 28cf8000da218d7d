"""Scalar reference implementations the vectorized code is tested against.

These are the historical per-event loops, kept only as test oracles:

* :func:`scalar_profile` — sum event durations into ``t_ijp`` one event
  at a time;
* :func:`rescan_window_profiles` / :func:`rescan_window_profiles_at` —
  clip the full event list against every window in turn
  (O(windows x events)) and profile each slice with the scalar loop;
* :func:`scalar_read_binary` — decode a binary trace one ``struct``
  record at a time, salvaging the valid prefix.
"""

from __future__ import annotations

import struct
import warnings
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.measurements import DEFAULT_ACTIVITIES, MeasurementSet
from repro.errors import TraceError, TraceWarning
from repro.instrument import (EVENT_KINDS, OUTSIDE_REGION, TraceEvent,
                              Tracer, Window, equal_edges)


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
