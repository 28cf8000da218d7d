"""A tracefile testbed: an indexed repository of performance traces.

The paper's future work cites the *Tracefile Testbed* [Ferschweiler,
Calzarossa et al., ICPP 2002] — "a community repository for identifying
and retrieving HPC performance data" — as the data source for applying
the methodology to "a large variety of scientific programs".  This
module implements that substrate at library scale:

* a directory-backed repository of trace files with a JSON index;
* per-trace metadata (program, machine, processor count, free-form
  tags) plus derived summary statistics captured at ingest time;
* attribute queries (``program=...``, ``min_ranks=...``, ``tag=...``);
* retrieval straight into the analysis pipeline.

Example::

    testbed = Testbed(directory)
    testbed.store(tracer, program="cfd", machine="sp2", tags=("paper",))
    for entry in testbed.query(program="cfd", min_ranks=8):
        analysis = analyze(profile(testbed.load(entry.trace_id)))
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import TraceError
from .instrument.tracefile import read_tracer, write_tracer
from .instrument.tracer import Tracer

INDEX_NAME = "index.json"

PathLike = Union[str, Path]


@dataclass(frozen=True)
class TestbedEntry:
    """Metadata of one stored trace."""

    __test__ = False    # not a pytest class, despite the Test* name

    trace_id: str
    program: str
    machine: str
    n_ranks: int
    events: int
    elapsed: float
    regions: Tuple[str, ...]
    tags: Tuple[str, ...] = ()

    def matches(self, program: Optional[str] = None,
                machine: Optional[str] = None,
                min_ranks: Optional[int] = None,
                max_ranks: Optional[int] = None,
                tag: Optional[str] = None,
                region: Optional[str] = None) -> bool:
        """Attribute filter used by :meth:`Testbed.query`."""
        if program is not None and self.program != program:
            return False
        if machine is not None and self.machine != machine:
            return False
        if min_ranks is not None and self.n_ranks < min_ranks:
            return False
        if max_ranks is not None and self.n_ranks > max_ranks:
            return False
        if tag is not None and tag not in self.tags:
            return False
        if region is not None and region not in self.regions:
            return False
        return True


class Testbed:
    """A directory-backed repository of trace files."""

    __test__ = False    # not a pytest class, despite the Test* name

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._index_path = self.directory / INDEX_NAME
        self._entries: Dict[str, TestbedEntry] = {}
        if self._index_path.exists():
            self._read_index()

    # ------------------------------------------------------------------
    # Index persistence
    # ------------------------------------------------------------------
    def _read_index(self) -> None:
        try:
            raw = json.loads(self._index_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise TraceError(f"corrupt testbed index: {error}") from error
        entries = {}
        for record in raw.get("entries", []):
            try:
                entry = TestbedEntry(
                    trace_id=str(record["trace_id"]),
                    program=str(record["program"]),
                    machine=str(record["machine"]),
                    n_ranks=int(record["n_ranks"]),
                    events=int(record["events"]),
                    elapsed=float(record["elapsed"]),
                    regions=tuple(record["regions"]),
                    tags=tuple(record.get("tags", ())),
                )
            except (KeyError, TypeError, ValueError) as error:
                raise TraceError(
                    f"corrupt testbed entry: {error}") from error
            entries[entry.trace_id] = entry
        self._entries = entries

    def _write_index(self) -> None:
        payload = {"entries": [asdict(entry)
                               for entry in self._entries.values()]}
        self._index_path.write_text(json.dumps(payload, indent=1),
                                    encoding="utf-8")

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    def _trace_path(self, trace_id: str) -> Path:
        return self.directory / f"{trace_id}.trace.jsonl.gz"

    def store(self, tracer: Tracer, program: str, machine: str,
              tags: Sequence[str] = (),
              trace_id: Optional[str] = None) -> TestbedEntry:
        """Ingest a trace; returns its catalogue entry.

        ``trace_id`` defaults to ``{program}-{machine}-{NNN}`` with a
        running number.
        """
        if len(tracer) == 0:
            raise TraceError("refusing to store an empty trace")
        if not program or not machine:
            raise TraceError("program and machine must be non-empty")
        if trace_id is None:
            base = f"{program}-{machine}"
            number = sum(1 for existing in self._entries
                         if existing.startswith(base))
            trace_id = f"{base}-{number:03d}"
        if trace_id in self._entries:
            raise TraceError(f"trace id {trace_id!r} already stored")
        write_tracer(self._trace_path(trace_id), tracer)
        entry = TestbedEntry(
            trace_id=trace_id, program=program, machine=machine,
            n_ranks=tracer.n_ranks, events=len(tracer),
            elapsed=tracer.elapsed, regions=tracer.regions(),
            tags=tuple(tags))
        self._entries[trace_id] = entry
        self._write_index()
        return entry

    def path(self, trace_id: str) -> Path:
        """The file of a stored trace, by id."""
        if trace_id not in self._entries:
            raise TraceError(f"unknown trace id {trace_id!r}")
        return self._trace_path(trace_id)

    def load(self, trace_id: str) -> Tracer:
        """Retrieve a stored trace by id."""
        return read_tracer(self.path(trace_id))

    def remove(self, trace_id: str) -> None:
        """Delete a trace and its index entry."""
        if trace_id not in self._entries:
            raise TraceError(f"unknown trace id {trace_id!r}")
        path = self._trace_path(trace_id)
        if path.exists():
            path.unlink()
        del self._entries[trace_id]
        self._write_index()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def entries(self) -> Tuple[TestbedEntry, ...]:
        """Every catalogue entry, sorted by id."""
        return tuple(sorted(self._entries.values(),
                            key=lambda entry: entry.trace_id))

    def query(self, **filters) -> Tuple[TestbedEntry, ...]:
        """Entries matching the given attribute filters (see
        :meth:`TestbedEntry.matches`)."""
        return tuple(entry for entry in self.entries()
                     if entry.matches(**filters))

    def programs(self) -> Tuple[str, ...]:
        """Distinct program names in the catalogue."""
        return tuple(sorted({entry.program
                             for entry in self._entries.values()}))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, trace_id: str) -> bool:
        return trace_id in self._entries
