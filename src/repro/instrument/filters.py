"""Trace manipulation utilities: filter, merge, shift, relabel.

Post-mortem workflows routinely slice and combine traces — keep one
phase, drop a warm-up, merge per-run traces into one corpus, rename a
region after a refactor.  These helpers edit the column chunks of
:class:`~repro.instrument.tracer.Tracer` objects (a mask drops events,
:func:`dataclasses.replace` swaps a column) into new tracers; the inputs
are never mutated.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Collection, Iterable, Optional, Sequence

import numpy as np

from ..errors import TraceError
from .columns import EventColumns
from .events import TraceEvent
from .tracer import Tracer

EventPredicate = Callable[[TraceEvent], bool]


def _named(chunk: EventColumns, column: str,
           names: Collection[str]) -> np.ndarray:
    """Which events of ``chunk`` have a ``column`` among ``names``."""
    return np.isin(getattr(chunk, column), [
        code for code, name in enumerate(chunk.names) if name in names])


def filter_events(tracer: Tracer, predicate: EventPredicate) -> Tracer:
    """A new tracer containing the events satisfying ``predicate``."""
    return Tracer(chunk.select(np.array(
        [bool(predicate(event)) for event in chunk.events()], dtype=bool))
        for chunk in tracer)


def filter_regions(tracer: Tracer, regions: Sequence[str]) -> Tracer:
    """Keep only the given regions."""
    wanted = set(regions)
    return Tracer(chunk.select(_named(chunk, "region", wanted))
                  for chunk in tracer)


def filter_activities(tracer: Tracer, activities: Sequence[str]) -> Tracer:
    """Keep only the given activities."""
    wanted = set(activities)
    return Tracer(chunk.select(_named(chunk, "activity", wanted))
                  for chunk in tracer)


def filter_ranks(tracer: Tracer, ranks: Sequence[int]) -> Tracer:
    """Keep only the given ranks (event rank ids are preserved)."""
    wanted = list(set(ranks))
    return Tracer(chunk.select(np.isin(chunk.rank, wanted))
                  for chunk in tracer)


def filter_time(tracer: Tracer, begin: float, end: float,
                clip: bool = True) -> Tracer:
    """Keep the events overlapping ``[begin, end)``.

    With ``clip`` (default) boundary events are trimmed to the window;
    otherwise they are kept whole.
    """
    if end <= begin:
        raise TraceError("time window must have positive length")

    def window(chunk: EventColumns) -> EventColumns:
        # An event keeps its own time unless the window cuts it (so a
        # -0.0 begin stays -0.0, as in a row-by-row ``max``).
        low = np.where(chunk.begin < begin, begin, chunk.begin)
        high = np.where(chunk.end > end, end, chunk.end)
        if clip:
            chunk = replace(chunk, begin=low, end=high)
        return chunk.select(high > low)
    return Tracer(map(window, tracer))


def shift_time(tracer: Tracer, offset: float) -> Tracer:
    """Translate every event by ``offset`` seconds (must stay >= 0)."""
    def shift(chunk: EventColumns) -> EventColumns:
        begin = chunk.begin + offset
        if (begin < 0.0).any():
            raise TraceError("shift would move an event before time zero")
        return replace(chunk, begin=begin, end=chunk.end + offset)
    return Tracer(map(shift, tracer))


def relabel_region(tracer: Tracer, old: str, new: str) -> Tracer:
    """Rename a region throughout the trace."""
    if not new:
        raise TraceError("new region name must be non-empty")

    def relabel(chunk: EventColumns) -> EventColumns:
        names = chunk.names + (() if new in chunk.names else (new,))
        return replace(chunk, names=names, region=np.where(
            _named(chunk, "region", {old}), names.index(new), chunk.region))
    return Tracer(map(relabel, tracer))


def merge(tracers: Iterable[Tracer],
          rank_offsets: Optional[Sequence[int]] = None) -> Tracer:
    """Combine several traces into one.

    Without ``rank_offsets`` the rank ids are kept as-is (events of the
    same rank interleave — merging windows of one run).  With offsets,
    trace ``k``'s ranks are shifted by ``rank_offsets[k]`` — merging
    *different* runs into a disjoint rank space.
    """
    tracer_list = list(tracers)
    offsets = [0] * len(tracer_list) if rank_offsets is None \
        else list(rank_offsets)
    if len(offsets) != len(tracer_list):
        raise TraceError("need one rank offset per tracer")
    if any(not 0 <= offset <= (1 << 63) - tracer.n_ranks
           for tracer, offset in zip(tracer_list, offsets)):
        raise TraceError("rank offsets must be non-negative and keep "
                         "ranks below 2**63")
    return Tracer(replace(
        chunk, rank=chunk.rank + offset,
        partner=np.where(chunk.partner >= 0, chunk.partner + offset, -1))
        if offset else chunk
        for tracer, offset in zip(tracer_list, offsets) for chunk in tracer)
