"""Shared on-disk, content-keyed result cache.

Two subsystems memoize analysis results on disk: the time-resolved
sweep (:mod:`repro.sweep`) and the analysis service daemon
(:mod:`repro.serve`).  Both need the same two ingredients, factored
out here so every cache in the package behaves identically:

* :func:`content_key` — a sha256 key over *(namespace, format version,
  package version, parameters, input bytes)*.  Hashing the input's
  bytes (not its path or mtime) means a file edited in place never
  serves a stale result, and re-running after adding one trace
  recomputes exactly that trace.  The key is **independent of how the
  bytes are fed in**: hashing a file path chunk by chunk and hashing
  the same bytes eagerly produce the same key (property-tested).
* :class:`ReportCache` — a directory of ``<key><suffix>`` text
  entries with crash-safe writes (temp file + :func:`os.replace`, so
  concurrent writers and readers never observe a torn entry) and a
  tolerant reader (a missing or unreadable entry is a miss, never an
  error).  Corruption *inside* a payload is the caller's to detect —
  the cache stores opaque text.  With ``max_bytes`` set the cache is
  **bounded**: every write evicts least-recently-used entries (reads
  refresh recency) until the directory fits under the cap again, so a
  long-lived daemon's disk footprint stays flat.  The eviction loop is
  :class:`BoundedDirectory`'s, which the daemon's trace store shares.

:func:`iter_chunks` is the bounded-read primitive under both
:func:`content_key` and the trace store's hash-while-ingesting path:
any byte source is consumed in fixed-size chunks, never whole.

The cache directory is created lazily on the first write, so a
read-only consumer (``use_cache=False`` sweeps, cold daemons) never
touches the disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Iterator, List, Mapping, Optional, Tuple, Union

from . import __version__
from .reports import SETTINGS, check_param

PathLike = Union[str, Path]

#: Chunk size for hashing file contents without loading them whole.
_HASH_CHUNK = 1 << 20
HASH_CHUNK = _HASH_CHUNK


def iter_chunks(stream, chunk_size: int = _HASH_CHUNK) -> Iterator[bytes]:
    """Fixed-size chunks of a binary stream until EOF.

    The bounded-memory read loop shared by :func:`content_key` and the
    trace store's streaming ingest: callers hash (or copy) each chunk
    as it arrives instead of materializing the whole input.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    while True:
        chunk = stream.read(chunk_size)
        if not chunk:
            return
        yield chunk


def content_key(namespace: str, version: Union[int, str],
                params: Mapping, *,
                path: Optional[PathLike] = None,
                data: Optional[bytes] = None) -> str:
    """Sha256 key of one *(input bytes, analysis parameters)* pair.

    ``namespace`` isolates unrelated caches (two subsystems can share a
    directory without colliding) and ``version`` is the caller's cache
    format number — bump it when the payload schema or the analysis
    semantics change and stale entries are never served.  The package
    version is mixed in as well, so upgrading the library invalidates
    every cache.

    ``params`` must be JSON-serializable; it is canonicalized with
    sorted keys, so two equal mappings always produce the same key.
    The input bytes come from ``path`` (read in bounded chunks) or
    ``data`` (already in memory); both spellings of the same bytes
    yield the same key.  Omitting both keys only the parameters.
    """
    if path is not None and data is not None:
        raise ValueError("pass either path or data, not both")
    digest = hashlib.sha256()
    digest.update(f"{namespace}:{version}:{__version__}".encode())
    digest.update(json.dumps(dict(params), sort_keys=True).encode())
    if path is not None:
        with open(path, "rb") as stream:
            for chunk in iter_chunks(stream):
                digest.update(chunk)
    elif data is not None:
        digest.update(data)
    return digest.hexdigest()


class BoundedDirectory:
    """Entries of a directory, evicted least recently used first while
    their total size is over ``max_bytes`` (``None``: unbounded).

    An entry is a group of paths (:meth:`_entries` lists them with the
    recency and the combined size); evicting it unlinks them in order,
    so a sidecar can go before the bytes it describes.  ``setting``
    names the :data:`repro.reports.SETTINGS` entry that ``max_bytes``
    is checked against.
    """

    def __init__(self, max_bytes: Optional[int], setting: str) -> None:
        check_param(setting, max_bytes, "max_bytes", table=SETTINGS)
        self.max_bytes = max_bytes
        self.evictions = 0
        self._lock = threading.Lock()

    def _entries(self) -> List[Tuple[float, int, Tuple[Path, ...]]]:
        """``(mtime, size, paths)`` of every entry."""
        raise NotImplementedError

    def total_bytes(self) -> int:
        """Total size of every entry, in bytes."""
        return sum(size for _, size, _ in self._entries())

    def evict(self, keep: Optional[Path] = None) -> int:
        """Drop least-recently-used entries until ``max_bytes`` holds;
        returns how many.  The entry holding ``keep`` (the one just
        written) is never a victim, so a single oversized entry is
        stored rather than thrashed."""
        if self.max_bytes is None:
            return 0
        entries = sorted(self._entries(), key=lambda entry: entry[:2])
        total = sum(size for _, size, _ in entries)
        evicted = 0
        for _, size, paths in entries:
            if total <= self.max_bytes:
                break
            if keep in paths:
                continue
            try:
                for path in paths:
                    path.unlink()
            except OSError:
                continue           # lost a concurrent-eviction race
            total -= size
            evicted += 1
        with self._lock:
            self.evictions += evicted
        return evicted

    def stats(self) -> dict:
        """Entry count, size, eviction counter and cap."""
        with self._lock:
            evictions = self.evictions
        entries = self._entries()
        return {"entries": len(entries),
                "bytes": sum(size for _, size, _ in entries),
                "evictions": evictions, "max_bytes": self.max_bytes}


class ReportCache(BoundedDirectory):
    """A directory of content-keyed text entries.

    Entries are opaque text payloads (JSON, rendered reports, ...)
    stored as ``<key><suffix>``.  Writes are atomic — a unique
    temporary file in the same directory is renamed over the entry —
    so a reader never sees a half-written payload and concurrent
    writers of the same key are safe (last writer wins with identical
    content, since the key is a content hash).  The ``hits`` /
    ``misses`` counters feed the daemon's ``/metrics`` endpoint; they
    are updated under a lock so threaded servers stay consistent.

    ``max_bytes`` caps the directory's total entry size: every
    :meth:`put` evicts least-recently-used entries (a :meth:`get` hit
    refreshes its entry's mtime) until the cap holds again.  The entry
    just written is never evicted, and a concurrent reader of an entry
    being evicted simply scores a miss and recomputes.
    """

    def __init__(self, directory: PathLike, suffix: str = ".json",
                 max_bytes: Optional[int] = None) -> None:
        super().__init__(max_bytes, "max_cache_bytes")
        self.directory = Path(directory)
        self.suffix = suffix
        self.hits = 0
        self.misses = 0

    def path(self, key: str) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        return self.directory / f"{key}{self.suffix}"

    def get(self, key: str) -> Optional[str]:
        """The cached payload, or ``None`` on a miss.

        Any read failure (missing directory, missing entry, permission
        trouble, undecodable bytes) is a miss: the cache recomputes,
        it never aborts the caller.
        """
        entry = self.path(key)
        try:
            text = entry.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            with self._lock:
                self.misses += 1
            return None
        try:
            os.utime(entry)        # refresh LRU recency on a hit
        except OSError:
            pass                   # evicted mid-read: still a valid hit
        with self._lock:
            self.hits += 1
        return text

    def put(self, key: str, text: str) -> Path:
        """Store ``text`` under ``key`` atomically; returns the entry path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        entry = self.path(key)
        handle, scratch = tempfile.mkstemp(
            dir=self.directory, prefix=".put-", suffix=self.suffix)
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(text)
            os.replace(scratch, entry)
        except BaseException:
            try:
                os.unlink(scratch)
            except OSError:
                pass
            raise
        self.evict(keep=entry)
        return entry

    def keys(self) -> Iterator[str]:
        """Keys of every stored entry (unordered)."""
        if not self.directory.is_dir():
            return
        for entry in self.directory.iterdir():
            if entry.name.endswith(self.suffix) \
                    and not entry.name.startswith("."):
                yield entry.name[:-len(self.suffix)] if self.suffix \
                    else entry.name

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, key: str) -> bool:
        return self.path(key).is_file()

    def _entries(self) -> List[Tuple[float, int, Tuple[Path, ...]]]:
        entries = []
        for key in self.keys():
            entry = self.path(key)
            try:
                stat = entry.stat()
            except OSError:
                continue           # lost a concurrent-eviction race
            entries.append((stat.st_mtime, stat.st_size, (entry,)))
        return entries

    def stats(self) -> dict:
        """Hit/miss/eviction counters plus current size and count."""
        with self._lock:
            hits, misses = self.hits, self.misses
        return {"hits": hits, "misses": misses, **super().stats()}
