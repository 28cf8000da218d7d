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
3. **Process-safe.**  Spans cross a process boundary only as values:
   :func:`repro.pool.map_tasks` runs each pool task with an empty
   recorder (a forked child's inherited spans are dropped), records
   only if the parent was recording, and returns the task's spans with
   its result for the parent to :func:`absorb`.  :func:`worker_scope`
   labels a task's spans with its logical worker.

Timestamps are ``time.perf_counter()`` values: on the platforms we
support that clock is system-wide (``CLOCK_MONOTONIC`` on Linux), so
parent and worker spans share a timeline without synchronization.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import ReproError

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


class _Recorder:
    """The process-wide span sink (exactly one per process)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._local = threading.local()
        self.enabled = False

    # -- recording -----------------------------------------------------
    def append(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def extend(self, spans: Iterable[Span]) -> None:
        with self._lock:
            self._spans.extend(spans)

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


def enable() -> None:
    """Start recording spans in this process (idempotent)."""
    _RECORDER.enabled = True


def disable() -> None:
    """Stop recording and drop anything not yet drained."""
    _RECORDER.enabled = False
    _RECORDER.take()


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
# Collection
# ----------------------------------------------------------------------
@contextmanager
def worker_scope(label: Optional[str] = None):
    """Label the spans this thread records inside the block with the
    logical worker ``label`` (a shard, a process slot)."""
    previous = _RECORDER.set_worker(label)
    try:
        yield
    finally:
        _RECORDER.set_worker(previous)


def absorb(spans: Iterable[Span]) -> None:
    """Add spans recorded elsewhere (a pool worker's) to this process's,
    while recording."""
    if _RECORDER.enabled:
        _RECORDER.extend(spans)


def drain() -> List[Span]:
    """All spans recorded or absorbed so far, in begin-time order;
    clears them."""
    collected = _RECORDER.take()
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


__all__ = ["DEFAULT_WORKER", "Span", "StageSummary", "absorb",
           "current_worker", "disable", "drain", "enable", "is_enabled",
           "render_span_table", "set_worker", "span", "summarize_spans",
           "worker_scope"]
