"""Trace file format: newline-delimited JSON with a header record.

Post-mortem analysis needs traces on disk.  The format is deliberately
simple and self-describing:

* line 1 — header object: ``{"format": "repro-trace", "version": 1,
  "ranks": N, "events": M}``;
* lines 2..M+1 — one event object per line with keys ``r`` (rank),
  ``g`` (region), ``a`` (activity), ``b`` (begin), ``e`` (end),
  ``k`` (kind), ``n`` (nbytes), ``p`` (partner).

Files ending in ``.gz`` are transparently gzip-compressed.  Reading
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
import warnings
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

from ..errors import TraceError, TraceWarning
from .columns import (DEFAULT_CHUNK_SIZE, ColumnBuilder, EventColumns,
                      damage, materialize, reader_source)
from .events import TraceEvent, check_event
from .tracer import Tracer

FORMAT_NAME = "repro-trace"
FORMAT_VERSION = 1

PathLike = Union[str, Path]

#: What a damaged event line can raise while it is decoded.
_LINE_ERRORS = (json.JSONDecodeError, KeyError, TypeError, ValueError,
                TraceError)


def _open(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def write_trace(path: PathLike, events: Iterable[TraceEvent]) -> int:
    """Write events to ``path``; returns the number written."""
    event_list = list(events)
    ranks = max((event.rank for event in event_list), default=-1) + 1
    target = Path(path)
    with _open(target, "w") as stream:
        header = {"format": FORMAT_NAME, "version": FORMAT_VERSION,
                  "ranks": ranks, "events": len(event_list)}
        stream.write(json.dumps(header) + "\n")
        for event in event_list:
            record = {"r": event.rank, "g": event.region, "a": event.activity,
                      "b": event.begin, "e": event.end, "k": event.kind,
                      "n": event.nbytes, "p": event.partner}
            stream.write(json.dumps(record) + "\n")
    return len(event_list)


def write_tracer(path: PathLike, tracer: Tracer) -> int:
    """Write everything a tracer recorded."""
    return write_trace(path, tracer.events)


def parse_header(header_line: str) -> Optional[int]:
    """Validate the header line; returns the promised event count."""
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as error:
        raise TraceError(f"bad trace header: {error}") from error
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise TraceError(
            f"not a {FORMAT_NAME} file (format={header.get('format')!r})"
            if isinstance(header, dict) else
            f"not a {FORMAT_NAME} file (header is not an object)")
    if header.get("version") != FORMAT_VERSION:
        raise TraceError(
            f"unsupported trace version {header.get('version')!r}")
    return header.get("events")


def _decode_lines(lines, chunk_size: int, damaged):
    """Decode ``(where, line)`` pairs into chunks of ``chunk_size``
    events — the format's one parser.

    Blank lines are skipped.  A bad line, or a stream error while
    reading (a truncated gzip member, undecodable UTF-8), ends the
    stream: ``damaged(reason, events decoded before it)`` applies the
    caller's damage policy.  Returns the event count, or ``None`` after
    damage.
    """
    builder = ColumnBuilder()
    decoded = 0
    reason = None
    try:
        for where, line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line if isinstance(line, str)
                                    else line.decode("utf-8"))
                event = (int(record["r"]), str(record["g"]),
                         str(record["a"]), float(record["b"]),
                         float(record["e"]), str(record["k"]),
                         int(record["n"]), int(record["p"]))
                rank, _, activity, begin, end, kind, _, _ = event
                check_event(rank, activity, begin, end, kind)
            except _LINE_ERRORS as error:
                reason = f"bad event at {where}: {error}"
                break
            builder.append(*event)
            if len(builder) == chunk_size:
                decoded += chunk_size
                yield builder.take()
    except (EOFError, OSError, UnicodeDecodeError) as error:
        reason = f"damaged stream: {error}"
    if reason is not None:
        damaged(reason, decoded + len(builder))
    decoded += len(builder)
    if len(builder):
        yield builder.take()
    return None if reason else decoded


def iter_trace(path: PathLike, chunk_size: int = DEFAULT_CHUNK_SIZE,
               on_error: str = "salvage") -> Iterator[EventColumns]:
    """Iterate a JSONL trace (optionally gzipped) in bounded chunks.

    Yields chunks of at most ``chunk_size`` events, in file order.
    Blank (whitespace-only) lines are not damage and do not count
    against the header's promised event count.  In strict mode the
    error surfaces at the chunk that hits the damage, after earlier
    chunks were already yielded.
    """
    source = reader_source(path, chunk_size, on_error)
    header = []

    def lines():
        with _open(source, "r") as stream:
            header_line = stream.readline()
            if not header_line:
                raise TraceError(f"trace file {source} is empty")
            header.append(parse_header(header_line))
            for number, line in enumerate(stream, start=2):
                yield f"line {number}", line

    decoded = yield from _decode_lines(
        lines(), chunk_size,
        lambda reason, salvaged: damage(source, salvaged, reason, on_error))
    expected = header[0]
    if decoded is not None and expected is not None and expected != decoded:
        damage(source, decoded, f"truncated: header promises {expected} "
               f"events, found {decoded}", on_error)


def iter_trace_span(path: PathLike, start: int, stop: int,
                    chunk_size: int = DEFAULT_CHUNK_SIZE,
                    on_error: str = "salvage") -> Iterator[EventColumns]:
    """Iterate the events of one byte range of an *uncompressed* JSONL
    trace.

    An event line belongs to the span iff its first byte lies in
    ``[start, stop)``; spans that tile the file therefore partition the
    events exactly once, regardless of where the cut points fall inside
    lines.  ``start == 0`` validates and skips the header line.  Gzip
    members are not seekable mid-stream; use :func:`iter_trace` for
    ``.gz`` files.  A span cannot know how many events precede it, so
    damage salvages the span's own prefix, even an empty one.
    """
    source = reader_source(path, chunk_size, on_error)
    if source.suffix == ".gz":
        raise TraceError(
            f"trace {source}: byte-range spans require an uncompressed "
            "trace (gzip streams are not seekable)")
    if start < 0 or stop < start:
        raise TraceError(f"invalid byte span [{start}, {stop})")

    def lines():
        with open(source, "rb") as stream:
            if start == 0:
                header_line = stream.readline()
                if not header_line:
                    raise TraceError(f"trace file {source} is empty")
                parse_header(header_line.decode("utf-8", errors="replace"))
            else:
                # Discard the (possibly partial) line containing
                # start-1; the next line starts at the first line
                # boundary >= start.
                stream.seek(start - 1)
                stream.readline()
            offset = stream.tell()
            while offset < stop:
                line = stream.readline()
                if not line:
                    return
                yield f"byte {offset}", line
                offset = stream.tell()

    def damaged(reason: str, salvaged: int) -> None:
        if on_error == "raise":
            raise TraceError(f"trace {source}: {reason}")
        warnings.warn(TraceWarning(
            f"trace {source}: {reason}; salvaged the first {salvaged} "
            "event(s) of the span"), stacklevel=3)

    yield from _decode_lines(lines(), chunk_size, damaged)


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
    tracer = Tracer()
    tracer.extend(read_trace(path, on_error=on_error))
    return tracer
