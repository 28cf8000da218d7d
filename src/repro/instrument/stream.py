"""Chunked trace iteration and the two trace folds every command shares.

The readers live with their formats (:mod:`.tracefile`, :mod:`.binary`;
re-exported here) and yield bounded
:class:`~repro.instrument.columns.EventColumns` chunks.  On top of
them, :func:`iter_any` dispatches by format and adds per-chunk decode
spans.  The two trace folds every command shares both run the shard
driver (:func:`repro.shards.shard_accumulate`: the one-shard plan, or
``jobs`` shard workers): :func:`accumulate_trace` folds a trace into an
:class:`~repro.core.online.OnlineAccumulator`, and :func:`trace_windows`
into a :class:`~repro.instrument.windows.WindowFold`, whose windows are
built as they are asked for.  The CLI, the daemon's jobs and ingest,
and the sweep workers all go through them; :class:`FoldedTrace`
re-reads a folded file for the renderers that walk every event.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

from ..core.online import OnlineAccumulator, TraceLayout
from ..obs import spans as obspans
from ..shards import plan_shards, read_shard, shard_accumulate
from .binary import (format_reader, iter_binary_span,  # noqa: F401
                     iter_binary_trace)
from .columns import DEFAULT_CHUNK_SIZE, EventColumns
from .tracefile import iter_trace, iter_trace_span  # noqa: F401
from .windows import Window, WindowFold

PathLike = Union[str, Path]


def _spanned_chunks(chunks: Iterator[EventColumns], stage: str,
                    trace: str) -> Iterator[EventColumns]:
    """Wrap each ``next()`` of a chunk iterator in a decode span.

    The span covers the decode work (file reads, JSON/record parsing),
    not the consumer's fold — the two alternate, so `repro self` can
    tell whether a slow stream spends its time decoding or
    accumulating.  StopIteration must be caught inside the ``with``
    (PEP 479: letting it escape a generator raises RuntimeError).
    """
    chunks = iter(chunks)
    while True:
        with obspans.span(stage, activity="decode", trace=trace) as live:
            try:
                chunk = next(chunks)
            except StopIteration:
                return
            live.set(events=len(chunk))
        yield chunk


def instrument_chunks(chunks: Iterator[EventColumns], stage: str,
                      trace: PathLike) -> Iterator[EventColumns]:
    """Per-chunk decode spans around ``chunks`` — only when span
    recording is enabled at call time; otherwise the iterator comes
    back untouched, so the streaming hot loop pays nothing."""
    if not obspans.is_enabled():
        return chunks
    return _spanned_chunks(chunks, stage, str(trace))


def iter_any(path: PathLike, chunk_size: int = DEFAULT_CHUNK_SIZE,
             on_error: str = "salvage") -> Iterator[EventColumns]:
    """Iterate a trace in whichever supported format it uses."""
    chunks = format_reader(path)(path, chunk_size=chunk_size,
                                 on_error=on_error)
    return instrument_chunks(chunks, "stream_decode", path)


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
                  on_error: str = "salvage", reread: bool = False,
                  jobs: Optional[int] = None
                  ) -> Tuple[Iterator[Window], TraceLayout]:
    """Slice a trace file into ``n_windows`` equal windows: the
    windows, built one at a time as they are iterated, and the
    :class:`~repro.core.online.TraceLayout` (labels, event count,
    extent; no tensor) of a :class:`~repro.instrument.windows.WindowFold`
    folded as :func:`accumulate_trace` folds, with ``jobs``.  Every plan
    gives the same windows, bit for bit.  ``reread`` is accepted and
    changes nothing: no pass reads the file again."""
    fold = shard_accumulate(path, jobs=1 if jobs is None else jobs,
                            chunk_size=chunk_size, on_error=on_error,
                            fold=WindowFold)
    return fold.windows(n_windows), fold.layout
