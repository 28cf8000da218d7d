"""Pipeline spans: nested, timed, attributed — and dogfood-ready.

The paper's thesis is that load imbalance you cannot see cannot be
fixed; this module gives the tool's *own* parallel machinery the same
eyes it turns on traced programs.  A :func:`span` wraps one pipeline
stage (reading a chunk, accumulating a shard, computing a dispersion
matrix, running a serve job) and records its wall-clock interval plus
free-form attributes.  Collected spans feed two consumers:

* the per-stage timing table behind ``--profile``;
* :mod:`repro.obs.selftrace`, which serializes spans into the repro
  trace format itself (workers as ranks, stages as regions), so
  ``repro analyze`` can diagnose imbalance in our own worker fleets.

Design constraints, in order:

1. **Zero overhead when disabled.**  ``span(...)`` with recording off
   returns a shared no-op context manager — one global load, one
   attribute check, no allocation.  Hot loops keep their span call
   sites unconditionally; ``tests/test_obs.py`` holds a fold's span
   sites under 2 % of its wall time disabled, 10 % enabled.
2. **Thread-safe.**  All appends take one lock; worker identity is a
   thread-local label so concurrent serve jobs attribute their spans
   correctly.
3. **Process-safe.**  Enabling with a ``spool_dir`` exports
   :data:`SPOOL_ENV`; multiprocessing workers wrap their task in
   :func:`worker_scope`, which records locally and flushes the spans
   to one JSONL spool file per task.  :func:`drain` in the parent
   merges in-memory and spooled spans.  Forked workers that inherit an
   enabled recorder are detected by pid and restarted fresh, so a
   parent's spans are never duplicated through a child.

Timestamps are ``time.perf_counter()`` values: on the platforms we
support that clock is system-wide (``CLOCK_MONOTONIC`` on Linux), so
parent and worker spans share a timeline without synchronization.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..errors import ReproError

#: Environment variable naming the spool directory; its presence tells
#: worker processes (fork or spawn) that the parent wants their spans.
SPOOL_ENV = "REPRO_SPAN_SPOOL"

#: Worker label recorded when neither the span nor the thread says
#: otherwise — the orchestrating process itself.
DEFAULT_WORKER = "main"


@dataclass(frozen=True)
class Span:
    """One timed interval of one pipeline stage.

    ``name`` becomes the region and ``activity`` the activity of the
    corresponding self-trace event; ``worker`` is the logical executor
    (shard index, process slot, job thread) that becomes a rank.
    """

    name: str
    begin: float
    end: float
    worker: str = DEFAULT_WORKER
    activity: str = "computation"
    attributes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.begin

    def to_dict(self) -> dict:
        return {"name": self.name, "begin": self.begin, "end": self.end,
                "worker": self.worker, "activity": self.activity,
                "attributes": self.attributes}

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(name=str(payload["name"]),
                   begin=float(payload["begin"]),
                   end=float(payload["end"]),
                   worker=str(payload.get("worker", DEFAULT_WORKER)),
                   activity=str(payload.get("activity", "computation")),
                   attributes=dict(payload.get("attributes") or {}))


class _Recorder:
    """The process-wide span sink (exactly one per process)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._local = threading.local()
        self.enabled = False
        self.spool_dir: Optional[str] = None
        self.pid = os.getpid()
        self._owns_env = False
        self._owns_spool = False

    # -- recording -----------------------------------------------------
    def append(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def take(self) -> List[Span]:
        with self._lock:
            spans, self._spans = self._spans, []
        return spans

    # -- worker labels -------------------------------------------------
    @property
    def worker(self) -> str:
        return getattr(self._local, "worker", DEFAULT_WORKER)

    def set_worker(self, label: Optional[str]) -> str:
        previous = self.worker
        self._local.worker = DEFAULT_WORKER if label is None else str(label)
        return previous


_RECORDER = _Recorder()


def is_enabled() -> bool:
    """True while this process is recording spans."""
    return _RECORDER.enabled


def enable(spool_dir: Optional[str] = None) -> None:
    """Start recording spans in this process.

    The spool directory is exported via :data:`SPOOL_ENV` so
    multiprocessing workers (which wrap their tasks in
    :func:`worker_scope`) spool their spans there for :func:`drain` to
    merge.  When ``spool_dir`` is omitted a private temporary directory
    is created and removed again by :func:`disable`, so worker spans
    always find their way home.  Enabling is idempotent; re-enabling
    with a different spool directory re-points the export.
    """
    recorder = _RECORDER
    recorder.pid = os.getpid()
    recorder.enabled = True
    if spool_dir is None:
        if recorder.spool_dir is not None:
            return               # keep the spool already in place
        import tempfile
        spool = tempfile.mkdtemp(prefix="repro-spans-")
        recorder._owns_spool = True
    else:
        spool = str(spool_dir)
        Path(spool).mkdir(parents=True, exist_ok=True)
        recorder._owns_spool = False
    recorder.spool_dir = spool
    os.environ[SPOOL_ENV] = spool
    recorder._owns_env = True


def disable() -> None:
    """Stop recording and drop anything not yet drained."""
    recorder = _RECORDER
    recorder.enabled = False
    recorder.take()
    if recorder._owns_env:
        os.environ.pop(SPOOL_ENV, None)
        recorder._owns_env = False
    if recorder._owns_spool and recorder.spool_dir:
        import shutil
        shutil.rmtree(recorder.spool_dir, ignore_errors=True)
    recorder._owns_spool = False
    recorder.spool_dir = None


def set_worker(label: Optional[str]) -> str:
    """Set this thread's worker label; returns the previous one."""
    return _RECORDER.set_worker(label)


def current_worker() -> str:
    """The worker label spans on this thread record by default."""
    return _RECORDER.worker


class _NoopSpan:
    """The shared disabled-path span: enter/exit/set do nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attributes) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class _LiveSpan:
    """A recording span; created only while recording is enabled."""

    __slots__ = ("_name", "_worker", "_activity", "_attributes", "_begin")

    def __init__(self, name: str, worker: Optional[str], activity: str,
                 attributes: dict) -> None:
        self._name = name
        self._worker = worker
        self._activity = activity
        self._attributes = attributes

    def __enter__(self) -> "_LiveSpan":
        self._begin = time.perf_counter()
        return self

    def set(self, **attributes) -> "_LiveSpan":
        """Attach attributes discovered mid-span (chunk counts, ...)."""
        self._attributes.update(attributes)
        return self

    def __exit__(self, *exc_info) -> bool:
        end = time.perf_counter()
        recorder = _RECORDER
        if recorder.enabled:     # a drain/disable may have raced us
            worker = self._worker if self._worker is not None \
                else recorder.worker
            recorder.append(Span(
                name=self._name, begin=self._begin, end=end,
                worker=worker, activity=self._activity,
                attributes=self._attributes))
        return False


def span(name: str, *, worker: Optional[str] = None,
         activity: str = "computation", **attributes):
    """A context manager timing one pipeline stage.

    Disabled recording returns a shared no-op — safe (and nearly free)
    to leave on hot paths.  ``worker`` defaults to the thread's label
    (see :func:`set_worker`); ``activity`` classifies the span within
    its stage the way trace activities classify events within regions.
    """
    if not _RECORDER.enabled:
        return _NOOP
    return _LiveSpan(name, worker, activity, attributes)


# ----------------------------------------------------------------------
# Cross-process collection
# ----------------------------------------------------------------------
def _flush_to_spool(spool: str, spans: Sequence[Span]) -> None:
    if not spans:
        return
    target = Path(spool) / f"spans-{os.getpid()}-{uuid.uuid4().hex}.jsonl"
    tmp = target.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as stream:
        for item in spans:
            stream.write(json.dumps(item.to_dict(), sort_keys=True) + "\n")
    os.replace(tmp, target)      # spool files appear atomically


class _WorkerScope:
    """Per-task recording inside a (possibly forked) worker process."""

    def __init__(self, label: Optional[str]) -> None:
        self._label = label
        self._spool: Optional[str] = None
        self._previous: Optional[str] = None

    def __enter__(self) -> "_WorkerScope":
        recorder = _RECORDER
        if recorder.enabled and recorder.pid != os.getpid():
            # A forked child inherited the parent's live recorder —
            # its spans belong to the parent and must not be re-spooled
            # from here.  Start this process fresh.
            recorder.enabled = False
            recorder.take()
            recorder._owns_env = False
            recorder._owns_spool = False
            recorder.spool_dir = None
        if recorder.enabled:
            # Same process (jobs=1 runs workers inline): recording is
            # already live; contribute the label, let the caller drain.
            self._previous = recorder.set_worker(self._label)
            return self
        spool = os.environ.get(SPOOL_ENV)
        if spool:
            self._spool = spool
            recorder.pid = os.getpid()
            recorder.enabled = True
            self._previous = recorder.set_worker(self._label)
        return self

    def __exit__(self, *exc_info) -> bool:
        recorder = _RECORDER
        if self._previous is not None:
            recorder.set_worker(self._previous)
        if self._spool is not None:
            recorder.enabled = False
            _flush_to_spool(self._spool, recorder.take())
        return False


def worker_scope(label: Optional[str] = None) -> _WorkerScope:
    """Wrap one worker task so its spans reach the parent.

    In a worker process (fork or spawn) with :data:`SPOOL_ENV` set,
    recording is enabled for the duration and the spans are flushed to
    a spool file on exit.  Inline execution (``jobs=1``) just sets the
    worker label.  With observability off entirely, this is a no-op.
    """
    return _WorkerScope(label)


def drain() -> List[Span]:
    """All spans recorded so far, in begin-time order; clears them.

    Merges this process's spans with every spool file written by
    worker scopes (the spool files are consumed).  Unreadable spool
    files are skipped — a crashed worker must not take the profile of
    the surviving ones with it.
    """
    recorder = _RECORDER
    collected = recorder.take()
    spool = recorder.spool_dir or os.environ.get(SPOOL_ENV)
    if spool and Path(spool).is_dir():
        for entry in sorted(Path(spool).glob("spans-*.jsonl")):
            try:
                with open(entry, "r", encoding="utf-8") as stream:
                    for line in stream:
                        if line.strip():
                            collected.append(
                                Span.from_dict(json.loads(line)))
                entry.unlink()
            except (OSError, ValueError, KeyError):
                continue
    collected.sort(key=lambda item: item.begin)
    return collected


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StageSummary:
    """Aggregate of every span sharing one stage name."""

    name: str
    count: int
    total: float
    mean: float
    largest: float
    workers: int


def summarize_spans(spans: Sequence[Span]) -> List[StageSummary]:
    """Per-stage aggregates, largest total first."""
    grouped: Dict[str, List[Span]] = {}
    for item in spans:
        grouped.setdefault(item.name, []).append(item)
    summaries = []
    for name, members in grouped.items():
        total = sum(member.duration for member in members)
        summaries.append(StageSummary(
            name=name, count=len(members), total=total,
            mean=total / len(members),
            largest=max(member.duration for member in members),
            workers=len({member.worker for member in members})))
    summaries.sort(key=lambda item: (-item.total, item.name))
    return summaries


def render_span_table(spans: Sequence[Span]) -> str:
    """The ``--profile`` per-stage timing table."""
    if not spans:
        raise ReproError("no spans were recorded")
    from ..viz import format_table
    wall = max(item.end for item in spans) - min(item.begin
                                                 for item in spans)
    rows = []
    for summary in summarize_spans(spans):
        share = (summary.total / wall * 100.0) if wall > 0 else 0.0
        rows.append([
            summary.name, str(summary.count), str(summary.workers),
            f"{summary.total * 1e3:.2f}", f"{summary.mean * 1e3:.3f}",
            f"{summary.largest * 1e3:.3f}", f"{share:.1f}%",
        ])
    return format_table(
        ["stage", "spans", "workers", "total (ms)", "mean (ms)",
         "max (ms)", "of wall"],
        rows,
        title=f"Pipeline profile: {len(spans)} spans over "
              f"{wall * 1e3:.1f} ms of wall clock")


__all__ = ["DEFAULT_WORKER", "SPOOL_ENV", "Span", "StageSummary",
           "current_worker", "disable", "drain", "enable", "is_enabled",
           "render_span_table", "set_worker", "span", "summarize_spans",
           "worker_scope"]
