"""In-memory trace recorder.

:class:`Tracer` plugs into the simulator as its trace sink and records
each event as a row of :class:`~repro.instrument.columns.EventColumns`.
Like :class:`~repro.instrument.stream.FoldedTrace` it is a chunk source
(``len()``, ``n_ranks`` and ``elapsed``, and ``begin``; iterating it
yields its chunks), the bridge between execution and analysis:

.. code-block:: python

    tracer = Tracer()
    Simulator(16, trace_sink=tracer.record).run(program)
    measurements = profile(tracer)          # -> MeasurementSet

:meth:`Tracer.extend` (and the constructor) also take a reader's chunks.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from ..errors import TraceError
from .columns import (DEFAULT_CHUNK_SIZE, ColumnBuilder, EventColumns,
                      materialize)
from .events import OUTSIDE_REGION, TraceEvent, check_event


class Tracer:
    """Records trace events as columns; iterates as ``EventColumns``."""

    def __init__(self, items: Iterable = ()) -> None:
        self.clear()
        self.extend(items)

    def record(self, rank: int, region: str, activity: str, begin: float,
               end: float, kind: str = "compute", nbytes: int = 0,
               partner: int = -1) -> None:
        """Trace-sink entry point (matches the engine's signature)."""
        check_event(rank, activity, begin, end, kind)
        self._append(rank, region or OUTSIDE_REGION, activity, begin, end,
                     kind, nbytes, partner)

    def add(self, event: TraceEvent) -> None:
        """Ingest one event (records may arrive in any time order)."""
        self._append(event.rank, event.region, event.activity, event.begin,
                     event.end, event.kind, event.nbytes, event.partner)

    def extend(self, items: Iterable) -> None:
        """Ingest many events, or chunks such as a reader yields."""
        for item in items:
            if not isinstance(item, EventColumns):
                self.add(item)
            elif len(item):
                self._cut().append(item)

    def _append(self, *row) -> None:
        self._rows.append(*row)
        if len(self._rows) == DEFAULT_CHUNK_SIZE:
            self._cut()

    def _cut(self) -> List[EventColumns]:
        """The chunks, the rows recorded since the last cut closed."""
        if len(self._rows):
            self._chunks.append(self._rows.take())
        return self._chunks

    def clear(self) -> None:
        """Drop everything recorded so far."""
        self._chunks, self._rows = [], ColumnBuilder()

    def __iter__(self) -> Iterator[EventColumns]:
        return iter(tuple(self._cut()))

    def __len__(self) -> int:
        return sum(map(len, self._chunks)) + len(self._rows)

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        """All events, in recording order, as objects."""
        return tuple(materialize(self))

    @property
    def n_ranks(self) -> int:
        """Number of distinct ranks seen (0 when empty)."""
        return max((int(chunk.rank.max()) for chunk in self), default=-1) + 1

    @property
    def begin(self) -> float:
        """Earliest event begin time (0 when empty).

        Traces do not necessarily start at t=0 — salvaged suffixes and
        replayed segments keep their original clocks — so the windowing
        code anchors its intervals here rather than at zero.
        """
        return min((float(chunk.begin.min()) for chunk in self), default=0.0)

    @property
    def elapsed(self) -> float:
        """Latest event end time — the traced program's wall clock."""
        return max((float(chunk.end.max()) for chunk in self), default=0.0)

    def _names(self, column: str) -> Tuple[str, ...]:
        """The names ``column`` refers to, in order of first appearance."""
        return tuple(dict.fromkeys(
            chunk.names[code] for chunk in self
            for code in dict.fromkeys(getattr(chunk, column).tolist())))

    def regions(self) -> Tuple[str, ...]:
        """Region names in order of first appearance (outside excluded)."""
        return tuple(name for name in self._names("region")
                     if name != OUTSIDE_REGION)

    def activities(self) -> Tuple[str, ...]:
        """Activity names in order of first appearance."""
        return self._names("activity")

    def events_of(self, rank: int) -> Tuple[TraceEvent, ...]:
        """Events of one rank, in recording order, as objects."""
        if rank < 0:
            raise TraceError("rank must be non-negative")
        return tuple(event for event in self.events if event.rank == rank)
