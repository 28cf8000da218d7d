"""Sharded map-reduce over a single trace file: the one fold driver.

:mod:`repro.sweep` fans *many* traces out over worker processes; this
module fans *one* trace out: the file is split into shards (byte ranges
of an uncompressed JSONL trace, record ranges of a binary trace), each
worker folds its shard into an :class:`~repro.core.online.OnlineAccumulator`,
and the partial accumulators are merged **in shard order** —
deterministic, and the merged label ordering equals the whole file's
first-appearance ordering.  A sequential read is the one-shard plan,
the span ``[0, None)``, as is any gzip trace (not seekable).

Shards report damage; the driver judges it once: it merges every shard
before the first damaged one plus that shard's valid prefix, so every
plan salvages the same events with the same warning (or raises the
same error) as a sequential read.  Drives ``repro analyze`` and
``repro self``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from .core.online import OnlineAccumulator
from .errors import TraceError
from .instrument.binary import (read_binary_header, scan_binary_span,
                                sniff_file, sniff_format)
from .instrument.columns import (DEFAULT_CHUNK_SIZE, Scan, judge,
                                 reader_source)
from .instrument.tracefile import scan_trace_span
from .obs import spans as obspans
from .pool import map_tasks, worker_count

PathLike = Union[str, Path]

#: Shard kinds: JSONL byte ranges or binary record ranges.
SHARD_KINDS = ("jsonl", "binary")


@dataclass(frozen=True)
class Shard:
    """One independently readable slice of a trace file.

    ``start``/``stop`` are byte offsets for ``kind="jsonl"`` and record
    indices for ``kind="binary"``; ``stop=None`` reads to the end of
    the file.
    """

    path: str
    kind: str
    start: int = 0
    stop: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in SHARD_KINDS:
            raise TraceError(f"shard kind must be one of {SHARD_KINDS}, "
                             f"got {self.kind!r}")


def plan_shards(path: PathLike, n_shards: int) -> List[Shard]:
    """Split one trace file into up to ``n_shards`` disjoint shards.

    The plan covers every event exactly once.  Fewer shards come back
    when the file is too small to split; a one-shard plan, and any
    gzip trace, is the whole-file span ``[0, None)``.
    """
    if n_shards < 1:
        raise TraceError(f"need at least one shard, got {n_shards}")
    source = Path(path)
    kind = sniff_format(source)
    if kind not in SHARD_KINDS:
        raise TraceError(f"{source} is in no supported trace format")
    whole = [Shard(path=str(source), kind=kind)]
    if n_shards == 1 or sniff_file(source) == "gzip":
        return whole
    if kind == "binary":
        with open(source, "rb") as stream:
            size = read_binary_header(source, stream)[0]
    else:
        size = source.stat().st_size
    cuts = [index * size // n_shards for index in range(n_shards + 1)]
    return [Shard(path=str(source), kind=kind, start=start, stop=stop)
            for start, stop in zip(cuts, cuts[1:]) if stop > start] or whole


def fold_shard(shard: Shard, chunk_size: int = DEFAULT_CHUNK_SIZE
               ) -> Tuple[OnlineAccumulator, Scan]:
    """Fold one shard (the *map* step): an accumulator of the events
    before the first damage the shard met, and its unjudged
    :class:`~repro.instrument.columns.Scan`."""
    from .instrument.stream import instrument_chunks
    scanner = scan_binary_span if shard.kind == "binary" else scan_trace_span
    scans = []

    def chunks():
        scans.append((yield from scanner(Path(shard.path), shard.start,
                                         shard.stop, chunk_size)))

    accumulator = OnlineAccumulator().consume(
        instrument_chunks(chunks(), "stream_decode", shard.path))
    return accumulator, scans[0]


def accumulate_shard(shard: Shard, chunk_size: int = DEFAULT_CHUNK_SIZE,
                     on_error: str = "salvage") -> OnlineAccumulator:
    """Fold one shard on its own: its damage is judged as its span
    reader (:func:`~repro.instrument.iter_trace_span`,
    :func:`~repro.instrument.iter_binary_span`) judges it."""
    source = reader_source(shard.path, chunk_size, on_error)
    accumulator, (kept, reason, promised) = fold_shard(shard, chunk_size)
    whole = shard.start == 0 and shard.stop is None
    judge(source, kept, reason, on_error, promised if whole else None)
    return accumulator


def _shard_worker(task):
    index, shard, chunk_size = task
    # Each shard is one logical worker of the self-trace: its spans are
    # labelled shard-N, so `repro self` can ask whether the shard fleet
    # itself is balanced.  In a pool process, map_tasks returns the
    # spans to the driver with the fold.
    with obspans.worker_scope(f"shard-{index}"):
        with obspans.span("shard_accumulate", kind=shard.kind,
                          start=shard.start, stop=shard.stop):
            return fold_shard(shard, chunk_size)


def shard_accumulate(path: PathLike, jobs: Optional[int] = None,
                     n_shards: Optional[int] = None,
                     chunk_size: int = DEFAULT_CHUNK_SIZE,
                     on_error: str = "salvage") -> OnlineAccumulator:
    """Map-reduce one trace into a merged accumulator (the driver).

    ``jobs`` caps the worker processes (default: one per CPU, never
    more than the shard count; 1 runs inline); ``n_shards`` defaults to
    ``jobs``.  The outcome does not depend on the plan: for an intact
    file it agrees with any other plan to within float rounding.
    """
    source = reader_source(path, chunk_size, on_error)
    jobs = worker_count(jobs)
    with obspans.span("shard_plan", activity="plan"):
        shards = plan_shards(source, jobs if n_shards is None else n_shards)
    folds = map_tasks(_shard_worker,
                      [(index, shard, chunk_size)
                       for index, shard in enumerate(shards)],
                      jobs, "shard_fanout")
    with obspans.span("shard_merge", activity="merge"):
        merged, kept = None, 0
        for accumulator, (events, reason, _) in folds:
            merged = (accumulator if merged is None
                      else merged.merge(accumulator))
            kept += events
            if reason is not None:
                break                 # later shards lie past the damage
        judge(source, kept, reason, on_error, folds[0][1].promised)
    return merged
