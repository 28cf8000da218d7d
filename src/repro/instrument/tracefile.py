"""Trace file format: newline-delimited JSON with a header record.

Post-mortem analysis needs traces on disk.  The format is deliberately
simple and self-describing:

* line 1 — header object: ``{"format": "repro-trace", "version": 1,
  "ranks": N, "events": M}``;
* lines 2..M+1 — one event object per line with keys ``r`` (rank),
  ``g`` (region), ``a`` (activity), ``b`` (begin), ``e`` (end),
  ``k`` (kind), ``n`` (nbytes), ``p`` (partner).

Files ending in ``.gz`` are written gzip-compressed, and gzip is read
transparently, recognized by its bytes whatever the file's name.  Reading
validates the header and every event.  A corrupt or truncated file is
*salvaged* by default: the valid prefix of events is returned and a
:class:`~repro.errors.TraceWarning` reports what was lost — a run that
died mid-write should still be analyzable.  ``on_error="raise"``
restores the strict behaviour, and a file whose header is unreadable
(nothing salvageable) raises :class:`~repro.errors.TraceError` in both
modes.  Every reader decodes lines with ``json.loads`` straight into
:class:`~repro.instrument.columns.EventColumns` chunks.
"""

from __future__ import annotations

import gzip
import json
import zlib
from pathlib import Path
from typing import Generator, Iterable, Iterator, List, Optional, Tuple, Union

from ..errors import TraceError
from .columns import (DEFAULT_CHUNK_SIZE, ColumnBuilder, EventColumns, Scan,
                      judge, materialize, reader_source)
from .events import TraceEvent, check_event
from .tracer import Tracer

FORMAT_NAME = "repro-trace"
FORMAT_VERSION = 1

PathLike = Union[str, Path]

#: What a damaged event line can raise while it is decoded (bad JSON
#: and bad UTF-8 are ValueErrors; hostile nesting exhausts recursion).
_LINE_ERRORS = (KeyError, TypeError, ValueError, RecursionError, TraceError)

#: What reading a damaged (gzip) stream can raise.
_STREAM_ERRORS = (EOFError, OSError, zlib.error)


def write_tracer(path: PathLike, tracer: Tracer) -> int:
    """Write a tracer's chunks line by line; returns the number written.
    Any chunk source with ``len()`` and ``n_ranks`` will do."""
    target = Path(path)
    opener = gzip.open if target.suffix == ".gz" else open
    with opener(target, "wt", encoding="utf-8") as stream:
        header = {"format": FORMAT_NAME, "version": FORMAT_VERSION,
                  "ranks": tracer.n_ranks, "events": len(tracer)}
        stream.write(json.dumps(header) + "\n")
        for chunk in tracer:
            for r, g, a, b, e, k, n, p in chunk.rows():
                record = {"r": r, "g": g, "a": a, "b": b, "e": e, "k": k,
                          "n": n, "p": p}
                stream.write(json.dumps(record) + "\n")
    return len(tracer)


def write_trace(path: PathLike, events: Iterable[TraceEvent]) -> int:
    """Write events to ``path``; returns the number written."""
    return write_tracer(path, Tracer(events))


def read_header(source: Path, stream) -> Tuple[Optional[int], Optional[int]]:
    """Read and validate the header line of a binary-mode ``stream`` —
    the one place the header is decoded.  Returns the event and rank
    counts it promises (``None`` when absent; a rank count that is no
    integer is ignored)."""
    line = stream.readline()
    if not line:
        raise TraceError(f"trace file {source} is empty")
    try:
        header = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        raise TraceError(f"bad trace header: {error}") from error
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise TraceError(
            f"not a {FORMAT_NAME} file (format={header.get('format')!r})"
            if isinstance(header, dict) else
            f"not a {FORMAT_NAME} file (header is not an object)")
    if header.get("version") != FORMAT_VERSION:
        raise TraceError(
            f"unsupported trace version {header.get('version')!r}")
    ranks = header.get("ranks")
    return header.get("events"), ranks if type(ranks) is int else None


def scan_trace_span(source: Path, start: int, stop: Optional[int],
                    chunk_size: int) -> Generator[EventColumns, None, Scan]:
    """Decode the event lines whose first byte lies in ``[start, stop)``
    (``None``: to the end) into chunks — the format's one parser.

    Spans that tile the file partition its events exactly once.  Every
    span reads the header, whose rank count bounds every event's rank;
    gzip, told by its bytes (:func:`~repro.instrument.binary.sniff_bytes`),
    is read only as the whole span ``[0, None)``.  Blank lines are
    skipped.  A bad line or a damaged stream (a truncated or corrupt
    gzip member) ends the span; the returned
    :class:`~repro.instrument.columns.Scan` reports it.
    """
    from .binary import sniff_bytes   # binary imports this module
    builder = ColumnBuilder()
    kept = 0
    reason = promised = None
    with open(source, "rb") as raw:
        stream = raw
        if sniff_bytes(raw.peek(4)[:4]) == "gzip":
            if start or stop is not None:
                raise TraceError(
                    f"trace {source}: byte-range spans require an "
                    "uncompressed trace (gzip streams are not seekable)")
            stream = gzip.GzipFile(fileobj=raw)
        try:
            promised, ranks = read_header(source, stream)
            if start:
                # Discard the (possibly partial) line containing
                # start-1; the next line starts at the first line
                # boundary >= start.
                stream.seek(start - 1)
                stream.readline()
            offset = stream.tell()
            for line in stream:
                if stop is not None and offset >= stop:
                    break
                where = offset
                offset += len(line)
                if not line.strip():
                    continue
                try:
                    record = json.loads(line.decode("utf-8"))
                    event = (int(record["r"]), str(record["g"]),
                             str(record["a"]), float(record["b"]),
                             float(record["e"]), str(record["k"]),
                             int(record["n"]), int(record["p"]))
                    rank, _, activity, begin, end, kind, _, _ = event
                    check_event(rank, activity, begin, end, kind, ranks)
                except _LINE_ERRORS as error:
                    reason = f"bad event at byte {where}: {error}"
                    break
                builder.append(*event)
                if len(builder) == chunk_size:
                    kept += chunk_size
                    yield builder.take()
        except _STREAM_ERRORS as error:
            reason = f"damaged stream: {error}"
    kept += len(builder)
    if len(builder):
        yield builder.take()
    return Scan(kept, reason, promised)


def iter_trace_span(path: PathLike, start: int, stop: Optional[int] = None,
                    chunk_size: int = DEFAULT_CHUNK_SIZE,
                    on_error: str = "salvage") -> Iterator[EventColumns]:
    """Iterate the events of one byte range of a JSONL trace, judged as
    one read: damage (see :func:`scan_trace_span`) salvages the valid
    prefix or raises.  Only the whole file, the span ``[0, None)``, is
    held to its header's promised event count."""
    source = reader_source(path, chunk_size, on_error)
    if start < 0 or (stop is not None and stop < start):
        raise TraceError(f"invalid byte span [{start}, {stop})")
    kept, reason, promised = yield from scan_trace_span(source, start, stop,
                                                        chunk_size)
    whole = start == 0 and stop is None
    judge(source, kept, reason, on_error, promised if whole else None)


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
    """Read a trace file back into a list of events.

    ``on_error`` controls what happens when the file is damaged past its
    header: ``"salvage"`` (the default) returns the valid prefix of
    events and issues a :class:`~repro.errors.TraceWarning`;
    ``"raise"`` turns any damage into a :class:`~repro.errors.TraceError`.
    A missing file, an unreadable header or a damaged file with no
    salvageable events raises in both modes.
    """
    return materialize(iter_trace(path, on_error=on_error))


def read_tracer(path: PathLike, on_error: str = "salvage") -> Tracer:
    """Read a trace file into a fresh :class:`Tracer`."""
    return Tracer(iter_trace(path, on_error=on_error))
