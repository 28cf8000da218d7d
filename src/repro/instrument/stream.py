"""The read layer: every trace reader, and the two trace folds every
command shares.

Each reader is the judged shard read (:func:`repro.shards.read_judged`:
the shard format's one parser, then the one damage policy) of one
:class:`~repro.shards.Shard`, yielding bounded
:class:`~repro.instrument.columns.EventColumns` chunks: a byte or
record span of a known format (:func:`iter_trace_span`,
:func:`iter_binary_span`), its whole-file span ``[0, None)``
(:func:`iter_trace`, :func:`read_trace`, :func:`iter_binary_trace`,
...), or the one-shard plan, whose sniff is the one format dispatch
(:func:`iter_any`, :func:`read_any`, :func:`read_any_tracer`).

The two trace folds both run the shard driver
(:func:`repro.shards.shard_accumulate`: the one-shard plan, or ``jobs``
shard workers): :func:`accumulate_trace` folds a trace into an
:class:`~repro.core.online.OnlineAccumulator`, and :func:`trace_windows`
into a :class:`~repro.instrument.windows.WindowFold`, whose windows are
built as they are asked for.  The CLI, the daemon's jobs and ingest,
and the sweep workers all go through them; :class:`FoldedTrace`
re-reads a folded file for the renderers that walk every event.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from ..core.online import OnlineAccumulator, TraceLayout
from ..shards import (Shard, plan_shards, read_judged, read_shard,
                      shard_accumulate)
from .columns import DEFAULT_CHUNK_SIZE, EventColumns, materialize
from .events import TraceEvent
from .tracer import Tracer
from .windows import Window, WindowFold

PathLike = Union[str, Path]


def iter_trace_span(path: PathLike, start: int, stop: Optional[int] = None,
                    chunk_size: int = DEFAULT_CHUNK_SIZE,
                    on_error: str = "salvage") -> Iterator[EventColumns]:
    """Iterate the events of one byte range of a JSONL trace (see
    :func:`~repro.instrument.tracefile.scan_trace_span`), judged as one
    read."""
    return read_judged(Shard(str(path), "jsonl", start, stop), chunk_size,
                       on_error)


def iter_trace(path: PathLike, chunk_size: int = DEFAULT_CHUNK_SIZE,
               on_error: str = "salvage") -> Iterator[EventColumns]:
    """Iterate a JSONL trace (optionally gzipped) in chunks of at most
    ``chunk_size`` events, in file order: the span ``[0, None)``.

    Blank lines are not damage and do not count against the header's
    promised event count.
    """
    return iter_trace_span(path, 0, None, chunk_size, on_error)


def read_trace(path: PathLike,
               on_error: str = "salvage") -> List[TraceEvent]:
    """Read a JSONL trace file back into a list of events.

    ``on_error`` controls what happens when the file is damaged past its
    header: ``"salvage"`` (the default) returns the valid prefix of
    events and issues a :class:`~repro.errors.TraceWarning`;
    ``"raise"`` turns any damage into a :class:`~repro.errors.TraceError`.
    A missing file, an unreadable header or a damaged file with no
    salvageable events raises in both modes.
    """
    return materialize(iter_trace(path, on_error=on_error))


def read_tracer(path: PathLike, on_error: str = "salvage") -> Tracer:
    """Read a JSONL trace file into a fresh :class:`Tracer`."""
    return Tracer(iter_trace(path, on_error=on_error))


def iter_binary_span(path: PathLike, start: int, stop: Optional[int] = None,
                     chunk_size: int = DEFAULT_CHUNK_SIZE,
                     on_error: str = "salvage") -> Iterator[EventColumns]:
    """Iterate the records ``[start, stop)`` of a binary trace (see
    :func:`~repro.instrument.binary.scan_binary_span`), judged as one
    read."""
    return read_judged(Shard(str(path), "binary", start, stop), chunk_size,
                       on_error)


def iter_binary_trace(path: PathLike,
                      chunk_size: int = DEFAULT_CHUNK_SIZE,
                      on_error: str = "salvage") -> Iterator[EventColumns]:
    """Iterate a binary trace in bounded chunks: the span ``[0, None)``.

    Damage before the first record (header or string table) raises in
    both modes.  Trailing NUL padding after the promised records
    (block-padded archival storage) is not damage — the binary
    counterpart of the blank lines the JSONL reader skips.
    """
    return iter_binary_span(path, 0, None, chunk_size, on_error)


def read_binary_trace(path: PathLike,
                      on_error: str = "salvage") -> List[TraceEvent]:
    """Read a binary trace file, validating every record (see
    :func:`iter_binary_trace` for the damage semantics)."""
    return materialize(iter_binary_trace(path, on_error=on_error))


def iter_any(path: PathLike, chunk_size: int = DEFAULT_CHUNK_SIZE,
             on_error: str = "salvage") -> Iterator[EventColumns]:
    """Iterate a trace in whichever supported format it uses: its
    one-shard plan."""
    return read_judged(plan_shards(path, 1)[0], chunk_size, on_error)


def read_any(path: PathLike,
             on_error: str = "salvage") -> List[TraceEvent]:
    """Read a trace file in whichever supported format it uses."""
    return materialize(iter_any(path, on_error=on_error))


def read_any_tracer(path: PathLike, on_error: str = "salvage") -> Tracer:
    """Read either format into a fresh :class:`Tracer`."""
    return Tracer(iter_any(path, on_error=on_error))


def accumulate_trace(path: PathLike, chunk_size: int = DEFAULT_CHUNK_SIZE,
                     on_error: str = "salvage",
                     jobs: Optional[int] = None) -> OnlineAccumulator:
    """Fold a whole trace file into an accumulator in bounded memory:
    the one-shard plan, inline (``jobs`` ``None`` or 1), or ``jobs``
    shards over as many worker processes."""
    return shard_accumulate(path, jobs=1 if jobs is None else jobs,
                            chunk_size=chunk_size, on_error=on_error)


class FoldedTrace:
    """A folded trace file as a chunk source that knows its extent, as a
    :class:`~repro.instrument.Tracer` does: ``len()``, ``n_ranks`` and
    ``elapsed`` are the ``fold``'s, and each iteration re-reads the file
    as its one-shard plan, up to the damage the fold judged already."""

    def __init__(self, path: PathLike, fold: OnlineAccumulator,
                 chunk_size: int) -> None:
        self.n_ranks, self.elapsed = fold.n_ranks, fold.elapsed
        self._size, self._read = fold.n_events, (path, chunk_size)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[EventColumns]:
        path, chunk_size = self._read
        return read_shard(plan_shards(path, 1)[0], chunk_size, [])


def trace_windows(path: PathLike, n_windows: int,
                  chunk_size: int = DEFAULT_CHUNK_SIZE,
                  on_error: str = "salvage", jobs: Optional[int] = None
                  ) -> Tuple[Iterator[Window], TraceLayout]:
    """Slice a trace file into ``n_windows`` equal windows: the
    windows, built one at a time as they are iterated, and the
    :class:`~repro.core.online.TraceLayout` (labels, event count,
    extent; no tensor) of a :class:`~repro.instrument.windows.WindowFold`
    folded as :func:`accumulate_trace` folds, with ``jobs``.  Every plan
    gives the same windows, bit for bit."""
    fold = shard_accumulate(path, jobs=1 if jobs is None else jobs,
                            chunk_size=chunk_size, on_error=on_error,
                            fold=WindowFold)
    return fold.windows(n_windows), fold.layout
