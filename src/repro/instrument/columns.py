"""Columnar event chunks: the form a trace takes from decode to tensor.

Every reader yields :class:`EventColumns` and a :class:`Tracer` records
them; the accumulators of :mod:`repro.core.online`, the filters, lint,
the timeline and the writers walk their numpy columns, and the eager
``read_*`` functions call :meth:`EventColumns.events`.  The module also
holds what every reader shares: argument checks and the damage policy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Tuple, Union)

import numpy as np

from ..errors import TraceError, TraceWarning
from .events import EVENT_KINDS, TraceEvent

#: Default number of events per yielded chunk.
DEFAULT_CHUNK_SIZE = 8192

_KIND_CODES = {kind: code for code, kind in enumerate(EVENT_KINDS)}

#: The per-event columns of a chunk, in :class:`TraceEvent` field order.
_COLUMNS = ("rank", "region", "activity", "begin", "end", "kind", "nbytes",
           "partner")


@dataclass(frozen=True, eq=False)
class EventColumns:
    """One chunk of events, column by column.

    ``region`` and ``activity`` are codes into ``names``; ``kind`` codes
    index :data:`~repro.instrument.events.EVENT_KINDS`.  Iterating a
    chunk yields its events.
    """

    rank: np.ndarray
    region: np.ndarray
    activity: np.ndarray
    begin: np.ndarray
    end: np.ndarray
    kind: np.ndarray
    nbytes: np.ndarray
    partner: np.ndarray
    names: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.rank)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events())

    def rows(self) -> Iterator[tuple]:
        """The events as tuples of :class:`TraceEvent` fields."""
        for rank, region, activity, begin, end, kind, nbytes, partner in zip(
                *(getattr(self, column).tolist() for column in _COLUMNS)):
            yield (rank, self.names[region], self.names[activity], begin,
                   end, EVENT_KINDS[kind], nbytes, partner)

    def events(self) -> List[TraceEvent]:
        """The chunk materialized as :class:`TraceEvent` objects."""
        return [TraceEvent(*row) for row in self.rows()]

    def select(self, mask: np.ndarray) -> "EventColumns":
        """The events where ``mask`` is true, same names."""
        return replace(self, **{column: getattr(self, column)[mask]
                                for column in _COLUMNS})

    @classmethod
    def from_events(cls, events: Iterable) -> "EventColumns":
        """One chunk holding ``events`` (anything with the
        :class:`TraceEvent` attributes), in order."""
        builder = ColumnBuilder()
        for event in events:
            builder.append(event.rank, event.region, event.activity,
                           event.begin, event.end, event.kind, event.nbytes,
                           event.partner)
        return builder.take()


class ColumnBuilder:
    """Collects events and cuts them into chunks.  Names are interned
    once per builder, so all its chunks share one code space."""

    def __init__(self) -> None:
        self._codes: Dict[str, int] = {}
        self._rows: List[tuple] = []

    def __len__(self) -> int:
        return len(self._rows)

    def append(self, rank: int, region: str, activity: str, begin: float,
               end: float, kind: str, nbytes: int, partner: int) -> None:
        """Add one (already validated) event."""
        codes = self._codes
        self._rows.append((rank, codes.setdefault(region, len(codes)),
                           codes.setdefault(activity, len(codes)), begin,
                           end, _KIND_CODES[kind], nbytes, partner))

    def take(self) -> EventColumns:
        """The events collected since the last cut, as one chunk."""
        columns = list(zip(*self._rows)) or [()] * 8
        self._rows = []
        dtypes = (None, np.intp, np.intp, float, float, np.uint8, None, None)
        return EventColumns(*(_array(column, dtype)
                              for column, dtype in zip(columns, dtypes)),
                            names=tuple(self._codes))


def _array(values: tuple, dtype) -> np.ndarray:
    """``np.array``, but ints no one integer dtype holds stay Python ints."""
    array = np.array(values, dtype=dtype)
    if dtype is None and array.dtype.kind == "f" and values:
        return np.array(values, dtype=object)
    return array


def materialize(chunks: Iterable[EventColumns]) -> List[TraceEvent]:
    """Every event of a chunk stream, in order — the eager readers."""
    return [event for chunk in chunks for event in chunk.events()]


def reader_source(path: Union[str, Path], chunk_size: int,
                  on_error: str) -> Path:
    """Validate a reader's arguments; returns the trace path."""
    if on_error not in ("salvage", "raise"):
        raise TraceError(
            f"on_error must be 'salvage' or 'raise', got {on_error!r}")
    if chunk_size < 1:
        raise TraceError(f"chunk_size must be >= 1, got {chunk_size}")
    source = Path(path)
    if not source.exists():
        raise TraceError(f"trace file {source} does not exist")
    return source


class Scan(NamedTuple):
    """What a span reader met: ``kept`` events before the first damage,
    that damage (``None`` when clean) and the event count the header
    promises for the whole file (JSONL; a binary span checks its records
    against its header itself)."""

    kept: int
    reason: Optional[str]
    promised: Optional[int] = None


def judge(source: Path, kept: int, reason: Optional[str], on_error: str,
          promised: Optional[int] = None) -> None:
    """The damage policy, applied once per read to its first damage (or,
    for a clean read, a ``promised`` event count it did not deliver):
    raise under ``on_error="raise"`` or when nothing before the damage
    survived; otherwise warn that the first ``kept`` events were kept."""
    if reason is None and promised is not None and promised != kept:
        reason = f"truncated: header promises {promised} events, found {kept}"
    if reason is None:
        return
    if on_error == "raise" or kept == 0:
        raise TraceError(f"trace {source}: {reason}")
    warnings.warn(TraceWarning(
        f"trace {source}: {reason}; salvaged the first "
        f"{kept} event(s)"), stacklevel=2)
