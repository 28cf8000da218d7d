"""Analysis jobs: bounded worker pool, report cache, single-flight.

The daemon never runs an analysis on a request-handler thread.  Every
report goes through :class:`JobRunner`:

* the **report cache** (a shared :class:`~repro.cache.ReportCache`)
  is consulted first — its key covers the trace's content digest, the
  job kind, the normalized parameters and the cache format version,
  so a daemon restart serves yesterday's reports instantly and a
  version bump invalidates them all;
* a miss submits the job to a **bounded** :class:`ThreadPoolExecutor`
  with **single-flight deduplication**: concurrent requests for the
  same key attach to the one in-flight future instead of computing
  twice (the in-flight table and the cache probe share one lock, so
  exactly one computation ever runs per key);
* results are cached *before* the key leaves the in-flight table, so
  there is no window in which a third request could recompute.

Job payloads carry the strict-JSON document
:func:`repro.reports.build_report` builds and its rendered text,
byte-identical to the corresponding CLI command's stdout because both
sides render the same document.  A payload that is not strict JSON, or
a failed job, becomes an ``error`` payload and is deliberately **not**
cached: a transient failure (an unreadable store) must not be sticky.
"""

from __future__ import annotations

import json
import threading
import time
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Dict, Mapping, Optional

# The stack the four job kinds run loads through .stack, after the
# daemon reports ready; `reports` itself imports no numpy.
from .. import reports
from ..cache import ReportCache, content_key
from ..errors import ReproError, TraceError, TraceWarning
from ..obs import log as obslog
from ..obs import memory as obsmemory
from ..obs import spans as obspans
from .metrics import ServiceMetrics
from .stack import load_stack
from .store import TraceStore

#: Bump when the payload schema or the analysis semantics change;
#: part of every report cache key, so stale entries are never served.
SERVE_CACHE_FORMAT = 3

#: Job kinds the daemon runs, mirroring the CLI commands they replicate.
JOB_KINDS = reports.REPORT_KINDS

#: Default bound on jobs in flight (queued + running).  Beyond it the
#: runner sheds load instead of queueing without limit.
DEFAULT_MAX_QUEUE = reports.SETTINGS["max_queue"].default


class QueueFullError(ReproError):
    """The bounded job queue is full; retry after ``retry_after`` seconds.

    The daemon maps this to HTTP 429 with a ``Retry-After`` header —
    overload sheds load instead of growing an unbounded backlog.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = max(1.0, float(retry_after))


class ServiceDrainingError(ReproError):
    """The runner is shutting down and accepts no new jobs (HTTP 503)."""


def normalize_params(kind: str, params: Optional[Mapping]) -> dict:
    """Validated, defaulted, canonically-ordered job parameters: the
    kind's served :data:`repro.reports.PARAMS` (``index``, and
    ``windows`` for ``temporal``).  Raises :class:`ReproError` on an
    unknown kind or parameter, an unknown index of dispersion or an
    out-of-range value — an HTTP 400 *before* any work is queued.
    """
    load_stack()          # the index check imports core.dispersion
    return reports.resolve_params(kind, params or {}, served=True,
                                  only=True)


def report_key(sha: str, kind: str, params: Mapping) -> str:
    """Cache key of one report: trace digest + kind + parameters.

    The trace's sha256 *is* a digest of its bytes, so the key changes
    whenever the trace content, the analysis parameters, the cache
    format or the package version change.
    """
    return content_key("repro-serve", SERVE_CACHE_FORMAT,
                       {"trace": sha, "kind": kind, "params": dict(params)})


def build_report(trace_path, sha: str, kind: str, params: Mapping) -> dict:
    """Run one analysis job; returns the ``status: ok`` payload.

    The payload envelope around :func:`repro.reports.build_report`'s
    document (``report``) and its :func:`~repro.reports.render`
    (``text``), byte-identical to the corresponding CLI command's
    stdout (``repro analyze TRACE [--diagnose|--whatif]`` or ``repro
    temporal TRACE --windows W``).  Salvage warnings are silenced — ingest
    already recorded whether the stored trace needed salvaging.
    """
    load_stack()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TraceWarning)
        document = reports.build_report(kind, trace_path, params)
    return {"status": "ok", "trace": sha, "kind": kind,
            "params": dict(params), "text": reports.render(document) + "\n",
            "report": document}


class JobRunner:
    """Bounded concurrent execution of analysis jobs with caching."""

    def __init__(self, store: TraceStore, cache: ReportCache,
                 metrics: Optional[ServiceMetrics] = None,
                 workers: int = reports.SETTINGS["workers"].default,
                 max_queue: Optional[int] = DEFAULT_MAX_QUEUE,
                 logger: Optional[obslog.JsonLogger] = None) -> None:
        reports.check_settings(workers=workers, max_queue=max_queue)
        self.store = store
        self.cache = cache
        self.metrics = metrics or ServiceMetrics()
        self.logger = logger if logger is not None else obslog.NullLogger()
        self.workers = workers
        self.max_queue = max_queue
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="repro-serve-job")
        self._inflight: Dict[str, Future] = {}
        self._lock = threading.Lock()
        self._draining = False

    # ------------------------------------------------------------------
    # The serving path
    # ------------------------------------------------------------------
    def fetch(self, sha: str, kind: str,
              params: Optional[Mapping] = None, *, wait: bool = True,
              timeout: Optional[float] = None) -> dict:
        """The report payload for one (trace, kind, params) triple.

        Cache hit → the stored payload (``cached: true``).  Miss → the
        job is queued (deduplicated against identical in-flight jobs)
        and, with ``wait``, this call blocks until the payload is
        ready; without it — or when ``timeout`` elapses first — a
        ``status: pending`` stub comes back and the caller polls
        :meth:`lookup`.

        Backpressure: a miss that would push the in-flight job count
        past ``max_queue`` raises :class:`QueueFullError` (nothing is
        queued), and a draining runner raises
        :class:`ServiceDrainingError`.  Requests that hit the cache or
        merge onto an in-flight job are never shed — shedding applies
        only to *new* work.
        """
        params = normalize_params(kind, params)
        key = report_key(sha, kind, params)
        start = time.perf_counter()
        self.metrics.count("reports_requested")
        with self._lock:
            future = self._inflight.get(key)
            if future is None:
                text = self.cache.get(key)
                if text is not None:
                    payload = self._decode(key, text)
                    if payload is not None:
                        self.metrics.count("report_cache_hits")
                        self.metrics.observe(
                            "report_hit", time.perf_counter() - start)
                        return payload
                # Only *computing* needs the trace bytes: a report
                # cached before its trace was evicted is still served.
                if sha not in self.store:
                    raise TraceError(f"unknown trace {sha!r}")
                if self._draining:
                    raise ServiceDrainingError(
                        "service is draining and accepts no new jobs")
                backlog = len(self._inflight)
                if self.max_queue is not None \
                        and backlog >= self.max_queue:
                    self.metrics.count("jobs_shed")
                    raise QueueFullError(
                        f"job queue is full ({backlog} in flight, "
                        f"limit {self.max_queue})",
                        retry_after=self._retry_after(backlog))
                self.metrics.count("report_cache_misses")
                self.metrics.adjust("queue_depth", 1)
                # The submitting thread's request ID rides along so
                # the job's log lines correlate with the access log.
                request_id = obslog.get_request_id()
                try:
                    future = self._executor.submit(
                        self._compute, key, sha, kind, params,
                        request_id)
                except RuntimeError:   # raced an executor shutdown
                    self.metrics.adjust("queue_depth", -1)
                    raise ServiceDrainingError(
                        "service is draining and accepts no new jobs")
                self._inflight[key] = future
                self.logger.info("job_queued", key=key, trace=sha,
                                 kind=kind, request_id=request_id)
            else:
                self.metrics.count("singleflight_merged")
        if not wait:
            return {"status": "pending", "key": key, "trace": sha,
                    "kind": kind, "params": dict(params)}
        try:
            payload = dict(future.result(timeout))
        except FutureTimeout:
            # A bounded wait that elapses is not an error: the job
            # stays queued and the caller polls for it by key.
            return {"status": "pending", "key": key, "trace": sha,
                    "kind": kind, "params": dict(params)}
        payload["cached"] = False
        self.metrics.observe("report_miss", time.perf_counter() - start)
        return payload

    def _retry_after(self, backlog: int) -> float:
        """Seconds until the backlog plausibly has room again."""
        mean = self.metrics.mean_seconds("job_compute") or 1.0
        return max(1.0, backlog * mean / self.workers)

    def lookup(self, key: str, *, wait: bool = False,
               timeout: Optional[float] = None) -> Optional[dict]:
        """A payload by cache key: cached, in-flight or ``None``."""
        with self._lock:
            future = self._inflight.get(key)
        if future is not None:
            if not wait:
                return {"status": "pending", "key": key}
            try:
                payload = dict(future.result(timeout))
            except FutureTimeout:
                return {"status": "pending", "key": key}
            payload["cached"] = False
            return payload
        text = self.cache.get(key)
        if text is None:
            return None
        return self._decode(key, text)

    def _decode(self, key: str, text: str) -> Optional[dict]:
        try:
            payload = json.loads(text)
        except ValueError:
            return None            # torn entry: treat as a miss
        payload["cached"] = True
        return payload

    def _compute(self, key: str, sha: str, kind: str, params: Mapping,
                 request_id: Optional[str] = None) -> dict:
        self.metrics.adjust("queue_depth", -1)
        self.metrics.adjust("jobs_running", 1)
        started = time.perf_counter()
        try:
            with self.metrics.timed("job_compute"), \
                    obspans.span("serve_job",
                                 worker=threading.current_thread().name,
                                 activity=kind, key=key, trace=sha):
                payload = build_report(
                    self.store.path(sha), sha, kind, params)
            payload["key"] = key
            try:
                entry = json.dumps(payload, sort_keys=True, allow_nan=False)
            except ValueError as error:     # a non-finite number escaped
                raise ReproError(f"report is not strict JSON: {error}")
            # Publish to the cache *before* leaving the in-flight
            # table: every moment after submission, the key is either
            # in flight or cached — never recomputable.
            self.cache.put(key, entry)
            self.metrics.count("jobs_computed")
            self.logger.info(
                "job_done", key=key, trace=sha, kind=kind,
                request_id=request_id,
                duration_ms=round(
                    (time.perf_counter() - started) * 1e3, 3))
            return payload
        except ReproError as error:
            self.metrics.count("jobs_failed")
            self.logger.error("job_failed", key=key, trace=sha,
                              kind=kind, request_id=request_id,
                              error=str(error))
            return {"status": "error", "key": key, "trace": sha,
                    "kind": kind, "params": dict(params),
                    "error": str(error)}
        finally:
            self.metrics.adjust("jobs_running", -1)
            with self._lock:
                self._inflight.pop(key, None)
            # The job's arrays are freed; hand their pages back rather
            # than leave them in this worker thread's heap.
            obsmemory.release_freed()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def in_flight(self) -> int:
        with self._lock:
            return len(self._inflight)

    @property
    def draining(self) -> bool:
        return self._draining

    def shutdown(self, wait: bool = True) -> None:
        """Drain: stop accepting jobs, finish (and cache) in-flight ones.

        From the first moment of the drain every new job is refused
        with :class:`ServiceDrainingError` (HTTP 503); cache hits keep
        being served until the HTTP front actually stops.
        """
        with self._lock:
            self._draining = True
        self._executor.shutdown(wait=wait)
