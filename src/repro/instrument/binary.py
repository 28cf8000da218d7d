"""Binary trace format: compact fixed-record encoding.

JSONL traces are self-describing but bulky; long simulations produce
millions of events.  This module provides a second on-disk format with
fixed-size records, a string table for region and activity names, and
the same validation guarantees as the JSONL reader.

Layout (little-endian):

* header — magic ``b"RPTB"``, version ``u16``, rank count ``u32``,
  event count ``u64``, string-table length ``u32``;
* string table — the UTF-8 region and activity names, NUL-separated,
  referenced by index;
* events — one 37-byte :data:`RECORD` each:
  ``u32 rank, u16 region_id, u16 activity_id, f64 begin, f64 end,
  u8 kind_id, u64 nbytes, i32 partner`` (packed without padding).

The readers decode whole blocks of records with one ``np.frombuffer``
and find the first invalid record with a vectorized mask.
:func:`sniff_format` detects which reader a file needs by its bytes
(gzip too, whatever the file's name); :func:`read_any` dispatches, so
tools accept either format.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import (Callable, Dict, Generator, Iterable, Iterator, List,
                    Optional, Tuple, Union)

import numpy as np

from ..errors import TraceError
from .columns import (DEFAULT_CHUNK_SIZE, EventColumns, Scan, judge,
                      materialize, reader_source)
from .events import EVENT_KINDS, TraceEvent, check_event
from .tracefile import iter_trace
from .tracer import Tracer

MAGIC = b"RPTB"
VERSION = 1

_HEADER = struct.Struct("<4sHIQI")

#: One event record, packed without padding (37 bytes).
RECORD = np.dtype([("rank", "<u4"), ("region", "<u2"), ("activity", "<u2"),
                   ("begin", "<f8"), ("end", "<f8"), ("kind", "u1"),
                   ("nbytes", "<u8"), ("partner", "<i4")])

PathLike = Union[str, Path]


def write_binary_trace(path: PathLike, source: Iterable) -> int:
    """Write what a :class:`Tracer` takes (a chunk source or events) in
    the binary format; returns the number written.  Each chunk's names
    are re-coded into one string table in order of first use, so chunks
    write the bytes their events would."""
    codes: Dict[str, int] = {}
    blocks = [_records(chunk, codes) for chunk in Tracer(source)]
    if len(codes) > 0xFFFF:
        raise TraceError("string table overflow (65535 names)")
    if any("\x00" in name for name in codes):
        raise TraceError("a name contains NUL, the string table separator")
    records = np.concatenate(blocks) if blocks else np.empty(0, RECORD)
    table = b"\x00".join(name.encode("utf-8") for name in codes)
    ranks = int(records["rank"].max()) + 1 if len(records) else 0
    with open(Path(path), "wb") as stream:
        stream.write(_HEADER.pack(MAGIC, VERSION, ranks, len(records),
                                  len(table)))
        stream.write(table)
        stream.write(records.tobytes())
    return len(records)


def _records(chunk: EventColumns, codes: Dict[str, int]) -> np.ndarray:
    """A chunk's binary records, its names coded through ``codes``."""
    # Each integer field's range; the header's rank count is max rank + 1.
    for column, low, high in (("rank", 0, 2 ** 32 - 2),
                              ("nbytes", 0, 2 ** 64 - 1),
                              ("partner", -2 ** 31, 2 ** 31 - 1)):
        values = getattr(chunk, column)
        if not low <= values.min() <= values.max() <= high:
            raise TraceError(f"{column} outside {low}..{high}, the range "
                             "of its binary record field")
    used, first = np.unique(np.stack([chunk.region, chunk.activity], 1),
                            return_index=True)
    recode = np.zeros(len(chunk.names), dtype=np.intp)
    for code in used[np.argsort(first)].tolist():
        recode[code] = codes.setdefault(chunk.names[code], len(codes))
    records = np.empty(len(chunk), dtype=RECORD)
    for field in RECORD.names:
        records[field] = getattr(chunk, field)
    records["region"] = recode[chunk.region]
    records["activity"] = recode[chunk.activity]
    return records


def read_binary_header(source: Path,
                       stream) -> Tuple[int, Tuple[str, ...], int, int]:
    """The preamble: record count, name table, first record offset and
    rank count."""
    head = stream.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise TraceError(f"{source} is too short to be a binary trace")
    magic, version, ranks, count, table_length = _HEADER.unpack(head)
    if magic != MAGIC:
        raise TraceError(f"{source} is not a binary repro trace")
    if version != VERSION:
        raise TraceError(f"unsupported binary trace version {version}")
    # Never ask for more than the file holds: a hostile length must not
    # become one huge allocation.
    table_bytes = stream.read(
        min(table_length, os.fstat(stream.fileno()).st_size))
    if len(table_bytes) != table_length:
        # Without the full string table no record can be decoded, so
        # there is nothing to salvage.
        raise TraceError(f"{source} truncated inside the string table")
    try:
        names = (tuple(part.decode("utf-8")
                       for part in table_bytes.split(b"\x00"))
                 if table_length else ())
    except UnicodeDecodeError as error:
        raise TraceError(f"corrupt string table: {error}") from error
    return count, names, _HEADER.size + table_length, ranks


#: Column types of a decoded chunk, in :data:`RECORD` field order.
_COLUMN_TYPES = (np.int64, np.intp, np.intp, float, float, np.uint8,
                 np.uint64, np.int64)


def _decode_block(data: bytes, names: Tuple[str, ...], ranks: int,
                  first: int) -> Tuple[EventColumns, Optional[str]]:
    """Decode the whole records in ``data`` (record ``first`` onwards).

    Stops before the first invalid record and returns why it is
    invalid (its first failing check, in the scalar decoder's order),
    or ``None`` when every record decoded.
    """
    records = np.frombuffer(data, dtype=RECORD,
                            count=len(data) // RECORD.itemsize)
    region, activity, kind = (records[field] for field in
                              ("region", "activity", "kind"))
    # One slot past the table stands for out-of-range codes.
    blank = np.array([not name for name in names] + [False])
    bad = ((region >= len(names)) | (activity >= len(names))
           | (kind >= len(EVENT_KINDS)) | (records["rank"] >= ranks)
           | (records["end"] < records["begin"])
           | blank[np.minimum(activity, len(names))])
    reason = None
    if bad.any():
        stop = int(bad.argmax())
        record = records[stop].item()
        try:
            if max(record[1], record[2]) >= len(names):
                raise TraceError("name index out of range")
            if record[5] >= len(EVENT_KINDS):
                raise TraceError(f"bad kind {record[5]}")
            check_event(record[0], names[record[2]], record[3], record[4],
                        EVENT_KINDS[record[5]], ranks)
        except TraceError as error:
            reason = f"record {first + stop}: {error}"
        records = records[:stop]
    return EventColumns(*(records[field].astype(dtype) for field, dtype
                          in zip(RECORD.names, _COLUMN_TYPES)),
                        names=names), reason


def iter_binary_trace(path: PathLike,
                      chunk_size: int = DEFAULT_CHUNK_SIZE,
                      on_error: str = "salvage") -> Iterator[EventColumns]:
    """Iterate a binary trace in bounded chunks: the span ``[0, None)``
    of :func:`iter_binary_span`.

    Damage before the first record (header or string table) raises in
    both modes.  Trailing NUL padding after the promised records
    (block-padded archival storage) is not damage — the binary
    counterpart of the blank lines the JSONL reader skips.
    """
    return iter_binary_span(path, 0, None, chunk_size, on_error)


def scan_binary_span(source: Path, start: int, stop: Optional[int],
                     chunk_size: int) -> Generator[EventColumns, None, Scan]:
    """Decode the records ``[start, stop)`` (clipped to the promised
    records) in blocks of ``chunk_size`` — the format's one parser.

    Seeks straight to the first record and reads nothing else but the
    preamble and, when the range reaches the last promised record, the
    bytes after it.  The first invalid record ends the span, as does
    the file ending early or non-NUL bytes after the last record; the
    returned :class:`~repro.instrument.columns.Scan` reports it.
    """
    with open(source, "rb") as stream:
        count, names, data_offset, ranks = read_binary_header(source, stream)
        size = os.fstat(stream.fileno()).st_size
        end = count if stop is None else min(stop, count)
        # Every read past the end of the file is empty; clipping keeps a
        # hostile count from asking for an offset no file can have.
        stream.seek(min(data_offset + start * RECORD.itemsize, size))
        position = start
        reason = None
        while position < end:
            want = min(chunk_size, end - position)
            chunk, reason = _decode_block(
                stream.read(want * RECORD.itemsize), names, ranks, position)
            if len(chunk):
                yield chunk
            position += len(chunk)
            if reason is not None or len(chunk) < want:
                break
        # Having read every promised record, the stream sits just past
        # the last one.
        junk = (reason is None and position == count
                and bool(stream.read().strip(b"\x00")))
        if reason is None and (position < end or junk):
            reason = (f"truncated: header promises {count} events "
                      f"({count * RECORD.itemsize} bytes), "
                      f"found {size - data_offset}")
    return Scan(position - start, reason)


def iter_binary_span(path: PathLike, start: int, stop: Optional[int] = None,
                     chunk_size: int = DEFAULT_CHUNK_SIZE,
                     on_error: str = "salvage") -> Iterator[EventColumns]:
    """Iterate the records ``[start, stop)`` of a binary trace, judged as
    one read: damage (see :func:`scan_binary_span`) salvages the valid
    prefix with a :class:`~repro.errors.TraceWarning` or raises
    (``on_error="raise"``, or nothing salvageable)."""
    source = reader_source(path, chunk_size, on_error)
    if start < 0 or (stop is not None and stop < start):
        raise TraceError(f"invalid record span [{start}, {stop})")
    kept, reason, _ = yield from scan_binary_span(source, start, stop,
                                                  chunk_size)
    judge(source, kept, reason, on_error)


def read_binary_trace(path: PathLike,
                      on_error: str = "salvage") -> List[TraceEvent]:
    """Read a binary trace file, validating every record (see
    :func:`iter_binary_trace` for the damage semantics)."""
    return materialize(iter_binary_trace(path, on_error=on_error))


def sniff_bytes(head: bytes) -> str:
    """``"binary"``, ``"gzip"`` (gzipped JSONL), ``"jsonl"`` or
    ``"unknown"`` by a file's first four bytes: the one format sniffer,
    which no file name overrules."""
    if head[:4] == MAGIC:
        return "binary"
    if head[:2] == b"\x1f\x8b":
        return "gzip"
    if head[:1] == b"{":
        return "jsonl"
    return "unknown"


def sniff_file(path: PathLike) -> str:
    """:func:`sniff_bytes` of a trace file."""
    source = Path(path)
    if not source.exists():
        raise TraceError(f"trace file {source} does not exist")
    with open(source, "rb") as stream:
        return sniff_bytes(stream.read(4))


def sniff_format(path: PathLike) -> str:
    """``"binary"``, ``"jsonl"`` (gzipped or not) or ``"unknown"`` by
    file signature."""
    kind = sniff_file(path)
    return "jsonl" if kind == "gzip" else kind


def format_reader(path: PathLike) -> Callable[..., Iterator[EventColumns]]:
    """The chunk iterator a trace file needs, chosen by its signature."""
    kind = sniff_format(path)
    if kind == "binary":
        return iter_binary_trace
    if kind == "jsonl":
        return iter_trace
    raise TraceError(f"{path} is in no supported trace format")


def read_any(path: PathLike,
             on_error: str = "salvage") -> List[TraceEvent]:
    """Read a trace file in whichever supported format it uses."""
    return materialize(format_reader(path)(path, on_error=on_error))


def read_any_tracer(path: PathLike, on_error: str = "salvage") -> Tracer:
    """Read either format into a fresh :class:`Tracer`."""
    return Tracer(format_reader(path)(path, on_error=on_error))
