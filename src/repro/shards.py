"""Sharded map-reduce over a single trace file.

:mod:`repro.sweep` fans *many* traces out over worker processes; this
module fans *one* trace out: the file is split into shards (byte ranges
of an uncompressed JSONL trace, record ranges of a binary trace), each
worker folds its shard into an :class:`~repro.core.online.OnlineAccumulator`
via the span iterators of :mod:`repro.instrument.stream`, and the
partial accumulators are merged **in shard order** — deterministic, so
repeated runs produce identical results and the merged label ordering
equals the whole file's first-appearance ordering.

Gzip streams are not seekable, so a ``.jsonl.gz`` trace degrades to a
single whole-file shard (still streamed in bounded chunks — only the
parallelism is lost, never the memory bound).

Sharding assumes an intact file: damage inside one shard salvages that
shard independently, which can keep events *after* the damage (they
live in later shards) — unlike the strictly-prefix salvage of the
sequential readers.  Pass ``on_error="raise"`` when that distinction
matters.

Drives ``repro analyze --stream --jobs J``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path
from typing import List, Optional, Union

from .errors import ReproError, TraceError
from .obs import spans as obspans

PathLike = Union[str, Path]

#: Shard kinds: JSONL byte ranges, binary record ranges, or a whole
#: file streamed sequentially (gzip, or a single-shard plan).
SHARD_KINDS = ("jsonl", "binary", "whole")


@dataclass(frozen=True)
class Shard:
    """One independently readable slice of a trace file.

    ``start``/``stop`` are byte offsets for ``kind="jsonl"``, record
    indices for ``kind="binary"``, and ignored for ``kind="whole"``.
    """

    path: str
    kind: str
    start: int = 0
    stop: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SHARD_KINDS:
            raise TraceError(f"shard kind must be one of {SHARD_KINDS}, "
                             f"got {self.kind!r}")


def plan_shards(path: PathLike, n_shards: int) -> List[Shard]:
    """Split one trace file into up to ``n_shards`` disjoint shards.

    The plan covers every event exactly once.  Fewer shards come back
    when the file is too small to split (or not splittable at all:
    gzip, unknown-but-sniffable-later formats degrade to one whole-file
    shard and let the span readers do the complaining).
    """
    from .instrument.binary import binary_record_count, sniff_format
    if n_shards < 1:
        raise TraceError(f"need at least one shard, got {n_shards}")
    source = Path(path)
    if not source.exists():
        raise TraceError(f"trace file {source} does not exist")
    kind = sniff_format(source)
    if kind == "binary":
        count, _ = binary_record_count(source)
        shards = []
        for index in range(n_shards):
            start = index * count // n_shards
            stop = (index + 1) * count // n_shards
            if stop > start:
                shards.append(Shard(path=str(source), kind="binary",
                                    start=start, stop=stop))
        return shards or [Shard(path=str(source), kind="binary",
                                start=0, stop=max(count, 1))]
    if kind == "jsonl":
        if source.suffix == ".gz" or n_shards == 1:
            return [Shard(path=str(source), kind="whole")]
        size = source.stat().st_size
        cuts = sorted({index * size // n_shards
                       for index in range(n_shards + 1)} | {0, size})
        shards = [Shard(path=str(source), kind="jsonl", start=start,
                        stop=stop)
                  for start, stop in zip(cuts, cuts[1:]) if stop > start]
        return shards or [Shard(path=str(source), kind="whole")]
    raise TraceError(f"{source} is in no supported trace format")


def accumulate_shard(shard: Shard, chunk_size: int = 8192,
                     on_error: str = "salvage"):
    """Fold one shard into a fresh accumulator (the *map* step)."""
    from .instrument.stream import (accumulate_trace, instrument_chunks,
                                    iter_binary_span, iter_trace_span)
    from .core.online import OnlineAccumulator
    if shard.kind == "whole":
        return accumulate_trace(shard.path, chunk_size=chunk_size,
                                on_error=on_error)
    reader = iter_binary_span if shard.kind == "binary" else iter_trace_span
    chunks = reader(shard.path, shard.start, shard.stop,
                    chunk_size=chunk_size, on_error=on_error)
    return OnlineAccumulator().consume(
        instrument_chunks(chunks, "stream_decode", shard.path))


def _shard_worker(task):
    index, shard, chunk_size, on_error = task
    # Each shard is one logical worker of the self-trace: its spans are
    # labelled shard-N, so `repro self` can ask whether the shard fleet
    # itself is balanced.  worker_scope also spools the spans back to
    # the driver when it runs in a separate process.
    with obspans.worker_scope(f"shard-{index}"):
        with obspans.span("shard_accumulate", kind=shard.kind,
                          start=shard.start, stop=shard.stop):
            return accumulate_shard(shard, chunk_size=chunk_size,
                                    on_error=on_error)


def shard_accumulate(path: PathLike, jobs: Optional[int] = None,
                     n_shards: Optional[int] = None,
                     chunk_size: int = 8192,
                     on_error: str = "salvage"):
    """Map-reduce one trace into a merged accumulator (the driver).

    ``jobs`` caps the worker processes (default: one per CPU, never
    more than the shard count; 1 runs inline).  ``n_shards`` defaults
    to ``jobs``.  Shards are merged left to right in plan order, so the
    result is deterministic and — for an intact file — agrees with the
    sequential streaming path to within float summation rounding.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ReproError(f"--jobs must be at least 1, got {jobs}")
    if n_shards is None:
        n_shards = jobs
    with obspans.span("shard_plan", activity="plan"):
        shards = plan_shards(path, n_shards)
    tasks = [(index, shard, chunk_size, on_error)
             for index, shard in enumerate(shards)]
    jobs = max(1, min(jobs, len(shards)))
    with obspans.span("shard_fanout", activity="coordination",
                      jobs=jobs, shards=len(shards)):
        if jobs == 1:
            parts = [_shard_worker(task) for task in tasks]
        else:
            with get_context().Pool(jobs) as pool:
                parts = pool.map(_shard_worker, tasks)
    with obspans.span("shard_merge", activity="merge"):
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merge(part)
        if any(shard.kind == "jsonl" for shard in shards):
            _check_promised_count(Path(path), merged, on_error)
    return merged


def _check_promised_count(source: Path, merged, on_error: str) -> None:
    """Byte-range span readers cannot see the header's promised event
    count (each only counts its own slice), so a cleanly truncated file
    — whole lines missing at the end — would slip through the sharded
    path.  Compare the merged total against the header's promise, with
    the sequential readers' damage policy."""
    from .instrument.columns import damage
    from .instrument.tracefile import parse_header
    with open(source, "r", encoding="utf-8") as stream:
        try:
            expected = parse_header(stream.readline())
        except TraceError:
            return      # span readers already complained about the header
    if expected is not None and expected != merged.n_events:
        damage(source, merged.n_events, f"truncated: header promises "
               f"{expected} events, found {merged.n_events}", on_error)
