"""Content-addressed persistent trace store for the analysis daemon.

Traces are addressed by the sha256 of their bytes: submitting the same
trace twice stores it once, and the digest doubles as the stable handle
clients use to request reports (and as the trace half of every report
cache key).  Layout under the store directory::

    objects/<sha256><ext>            the trace bytes, verbatim
    objects/<sha256><ext>.meta.json  ingest-time metadata

``<ext>`` is sniffed from the bytes (``.rptb`` for the binary format,
``.jsonl.gz`` for gzip, ``.jsonl`` otherwise) so the format-sniffing
readers in :mod:`repro.instrument` open stored objects directly.

Ingestion is **validated and salvage-tolerant**, reusing the
degradation-tolerant readers: a damaged-but-salvageable trace is
accepted (flagged ``salvaged`` in its metadata, exactly as the CLI
would analyze it with a warning), a totally unreadable payload is
rejected with :class:`~repro.errors.TraceError` before anything is
published.  Writes are crash-safe: bytes land in a temporary file that
is atomically renamed only after validation, so a killed daemon never
leaves a half-ingested object — this is what lets SIGTERM drain
without dropping a submitted trace.

Ingestion is also **bounded-memory**: :meth:`TraceStore.add_stream`
spools any byte source to disk in fixed-size chunks while hashing it
(the same :func:`repro.cache.iter_chunks` machinery behind
:func:`~repro.cache.content_key`), so a multi-gigabyte upload never
materializes in RAM.  With ``max_bytes`` set the store is size-capped:
each successful ingest evicts least-recently-analyzed traces (reads
via :meth:`TraceStore.path` refresh recency) until the cap holds, the
just-ingested trace always surviving.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import threading
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import BinaryIO, List, Optional, Tuple, Union

from ..cache import HASH_CHUNK, iter_chunks
from ..errors import TraceError, TraceWarning
from ..instrument.binary import MAGIC
from ..instrument.stream import accumulate_trace

PathLike = Union[str, Path]


@dataclass(frozen=True)
class StoredTrace:
    """Ingest-time metadata of one stored trace."""

    sha256: str
    n_bytes: int
    format: str
    events: int
    ranks: int
    elapsed: float
    regions: Tuple[str, ...]
    name: str = ""
    #: True when ingestion had to salvage a damaged payload.
    salvaged: bool = False

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["regions"] = list(self.regions)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "StoredTrace":
        return cls(
            sha256=str(payload["sha256"]),
            n_bytes=int(payload["n_bytes"]),
            format=str(payload["format"]),
            events=int(payload["events"]),
            ranks=int(payload["ranks"]),
            elapsed=float(payload["elapsed"]),
            regions=tuple(payload["regions"]),
            name=str(payload.get("name", "")),
            salvaged=bool(payload.get("salvaged", False)))


def sniff_suffix(data: bytes) -> str:
    """The file suffix the format sniffer expects for these bytes."""
    if data[:4] == MAGIC:
        return ".rptb"
    if data[:2] == b"\x1f\x8b":
        return ".jsonl.gz"
    return ".jsonl"


def trace_sha256(source: Union[PathLike, bytes]) -> str:
    """Sha256 hex digest of a trace's bytes (path or in-memory)."""
    if isinstance(source, bytes):
        return hashlib.sha256(source).hexdigest()
    digest = hashlib.sha256()
    with open(source, "rb") as stream:
        for chunk in iter_chunks(stream):
            digest.update(chunk)
    return digest.hexdigest()


class TraceStore:
    """A directory of content-addressed trace files."""

    def __init__(self, directory: PathLike,
                 max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be at least 1")
        self.directory = Path(directory)
        self.objects = self.directory / "objects"
        self.max_bytes = max_bytes
        self.evictions = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _meta_path(self, sha: str, suffix: str) -> Path:
        return self.objects / f"{sha}{suffix}.meta.json"

    def _find(self, sha: str) -> Optional[Tuple[Path, Path]]:
        """(object path, meta path) of a stored trace, or None."""
        if not self.objects.is_dir():
            return None
        for suffix in (".jsonl", ".jsonl.gz", ".rptb"):
            candidate = self.objects / f"{sha}{suffix}"
            if candidate.is_file():
                return candidate, self._meta_path(sha, suffix)
        return None

    def __contains__(self, sha: str) -> bool:
        return self._find(sha) is not None

    def __len__(self) -> int:
        return len(self.entries())

    def path(self, sha: str) -> Path:
        """Filesystem path of a stored trace's bytes.

        Reading a trace for analysis goes through here, so the access
        refreshes the object's mtime — the LRU recency signal behind
        :meth:`evict` — making "least recently used" mean "least
        recently analyzed", not "least recently uploaded".
        """
        found = self._find(sha)
        if found is None:
            raise TraceError(f"unknown trace {sha!r}")
        try:
            os.utime(found[0])
        except OSError:
            pass
        return found[0]

    def get(self, sha: str) -> StoredTrace:
        """Metadata of one stored trace."""
        found = self._find(sha)
        if found is None:
            raise TraceError(f"unknown trace {sha!r}")
        try:
            return StoredTrace.from_dict(
                json.loads(found[1].read_text(encoding="utf-8")))
        except (OSError, ValueError, KeyError) as error:
            raise TraceError(
                f"corrupt metadata for trace {sha!r}: {error}") from error

    def entries(self) -> List[StoredTrace]:
        """Every stored trace's metadata, sorted by digest."""
        if not self.objects.is_dir():
            return []
        found = []
        for meta in sorted(self.objects.glob("*.meta.json")):
            try:
                found.append(StoredTrace.from_dict(
                    json.loads(meta.read_text(encoding="utf-8"))))
            except (OSError, ValueError, KeyError):
                continue       # a torn sidecar hides one entry, not all
        return found

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add_stream(self, stream: BinaryIO, name: str = "",
                   chunk_size: int = HASH_CHUNK) -> Tuple[StoredTrace, bool]:
        """Validate and store a trace from a byte stream.

        The source is consumed in ``chunk_size`` pieces, each chunk
        hashed and spooled to a scratch file in one pass — peak memory
        is one chunk regardless of trace size.  Returns
        ``(meta, created)``; ``created`` is False when the identical
        bytes were already stored (the existing metadata is returned
        untouched).  Raises :class:`TraceError` when the payload is no
        readable trace in any supported format, in which case nothing
        is published.
        """
        first = stream.read(chunk_size)
        if not first:
            raise TraceError("refusing to store an empty trace")
        suffix = sniff_suffix(first)
        digest = hashlib.sha256()
        self.objects.mkdir(parents=True, exist_ok=True)
        handle, scratch = tempfile.mkstemp(
            dir=self.objects, prefix=".ingest-", suffix=suffix)
        scratch = Path(scratch)
        try:
            n_bytes = 0
            with os.fdopen(handle, "wb") as spool:
                digest.update(first)
                spool.write(first)
                n_bytes += len(first)
                for chunk in iter_chunks(stream, chunk_size):
                    digest.update(chunk)
                    spool.write(chunk)
                    n_bytes += len(chunk)
            sha = digest.hexdigest()
            found = self._find(sha)
            if found is not None:
                return self.get(sha), False
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", TraceWarning)
                try:
                    folded = accumulate_trace(scratch)
                except (TraceError, OSError) as error:
                    raise TraceError(
                        f"not a readable trace: {error}") from error
            salvaged = any(issubclass(entry.category, TraceWarning)
                           for entry in caught)
            meta = StoredTrace(
                sha256=sha, n_bytes=n_bytes,
                format=suffix.lstrip("."), events=folded.n_events,
                ranks=folded.n_ranks, elapsed=folded.elapsed,
                regions=folded.regions(), name=name, salvaged=salvaged)
            meta_path = self._meta_path(sha, suffix)
            meta_scratch = scratch.with_name(scratch.name + ".meta")
            meta_scratch.write_text(
                json.dumps(meta.to_dict(), sort_keys=True),
                encoding="utf-8")
            # Publish the object first, its sidecar second: a reader
            # that sees the sidecar can rely on the bytes being there.
            os.replace(scratch, self.objects / f"{sha}{suffix}")
            os.replace(meta_scratch, meta_path)
        finally:
            for leftover in (scratch,
                             scratch.with_name(scratch.name + ".meta")):
                if leftover.exists():
                    leftover.unlink()
        self.evict(keep=sha)
        return meta, True

    def add_bytes(self, data: bytes,
                  name: str = "") -> Tuple[StoredTrace, bool]:
        """Validate and store an in-memory trace (see :meth:`add_stream`)."""
        return self.add_stream(io.BytesIO(data), name=name)

    def add_file(self, path: PathLike,
                 name: Optional[str] = None) -> Tuple[StoredTrace, bool]:
        """Ingest a trace file in bounded chunks (see :meth:`add_stream`)."""
        source = Path(path)
        try:
            with open(source, "rb") as stream:
                return self.add_stream(
                    stream, name=source.name if name is None else name)
        except OSError as error:
            raise TraceError(f"cannot read {source}: {error}") from error

    # ------------------------------------------------------------------
    # Bounded storage
    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        """Bytes held by every published object and its sidecar."""
        total = 0
        for _, _, size in self._published():
            total += size
        return total

    def _published(self) -> List[Tuple[Path, Path, int]]:
        """(object, sidecar, combined size) of every published trace."""
        if not self.objects.is_dir():
            return []
        published = []
        for sidecar in self.objects.glob("*.meta.json"):
            obj = sidecar.with_name(sidecar.name[:-len(".meta.json")])
            try:
                size = obj.stat().st_size + sidecar.stat().st_size
            except OSError:
                continue           # lost a concurrent-eviction race
            published.append((obj, sidecar, size))
        return published

    def evict(self, keep: Optional[str] = None) -> int:
        """Drop least-recently-analyzed traces until ``max_bytes`` holds.

        Returns the number of traces evicted.  The trace digested
        ``keep`` (the one an ingest just published) is never a victim,
        so a single oversized trace is stored rather than thrashed.
        Reports already cached for an evicted trace stay cached — only
        re-analysis under *new* parameters needs a resubmission.
        """
        if self.max_bytes is None:
            return 0
        ranked = []
        total = 0
        for obj, sidecar, size in self._published():
            try:
                mtime = obj.stat().st_mtime
            except OSError:
                continue
            total += size
            ranked.append((mtime, size, obj, sidecar))
        ranked.sort(key=lambda item: item[:2])
        evicted = 0
        for _, size, obj, sidecar in ranked:
            if total <= self.max_bytes:
                break
            if keep is not None and obj.name.startswith(keep):
                continue
            # Retract in reverse publish order: the sidecar disappears
            # before the bytes, so no reader sees metadata without data.
            for victim in (sidecar, obj):
                try:
                    victim.unlink()
                except OSError:
                    pass
            total -= size
            evicted += 1
        if evicted:
            with self._lock:
                self.evictions += evicted
        return evicted

    def stats(self) -> dict:
        """Entry count, on-disk size and eviction counter."""
        with self._lock:
            evictions = self.evictions
        published = self._published()
        return {"entries": len(published),
                "bytes": sum(size for _, _, size in published),
                "evictions": evictions,
                "max_bytes": self.max_bytes}
