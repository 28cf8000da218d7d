"""The analysis service daemon: a stdlib-only threaded HTTP server.

``repro serve`` turns the analysis library into a long-lived serving
system: traces are submitted once into the content-addressed
:class:`~repro.serve.store.TraceStore`, reports are computed once per
*(trace, kind, parameters)* by the :class:`~repro.serve.jobs.JobRunner`
and then served from the shared on-disk cache at memory speed.

Endpoints (all JSON unless noted):

====================  =====================================================
``GET  /healthz``     liveness: ``{"status": "ok", "stack": ...}``;
                      ``stack`` is ``loaded`` once the job stack has
                      loaded (:mod:`repro.serve.stack`)
``GET  /metrics``     counters, gauges, p50/p99 latencies
``GET  /traces``      every stored trace's metadata
``GET  /traces/SHA``  one stored trace's metadata
``POST /traces``      body = raw trace bytes (JSONL, gzip or ``.rptb``);
                      201 on first store, 200 when already stored
``POST /reports``     body = ``{"trace": SHA, "kind": ..., "params": {},
                      "wait": true}``; the report payload (or a
                      ``pending`` stub with ``"wait": false``)
``GET  /reports/KEY`` a payload by cache key (``?wait=SECONDS`` blocks)
====================  =====================================================

Production hardening (the documented status contract):

* request bodies above ``max_body_bytes`` are refused with **413**
  before a byte is read, and accepted uploads stream straight into the
  store in bounded chunks;
* a JSON body (``POST /reports``) above :data:`MAX_JSON_BYTES` (1 MiB)
  or ``max_body_bytes``, whichever is smaller, is refused with **413**
  before a byte is read, so no handler buffers more than that;
* a refused connection is closed in stages (:data:`LINGER_SECONDS`),
  so a client still sending its body reads the answer, not a reset;
* a malformed ``Content-Length``, an invalid ``timeout`` or a
  non-boolean ``wait`` is a **400**, and every blocking wait is clamped
  to ``max_wait_seconds``;
* when the bounded job queue is full the daemon sheds load with
  **429** + ``Retry-After`` instead of queueing without limit, and
  answers **503** while draining;
* per-connection socket timeouts (**408**) stop a slow-loris peer from
  pinning a handler thread;
* with ``max_cache_bytes`` / ``max_store_bytes`` set, the report cache
  and trace store evict least-recently-used entries so disk usage
  stays under the caps.

Graceful shutdown: SIGTERM/SIGINT stop the accept loop, the worker
pool **drains** — every in-flight job finishes and lands in the cache
— and only then does the process exit.  Submitted traces are never
dropped: they were atomically published to the store before their
submission request was even answered.
"""

from __future__ import annotations

import json
import math
import selectors
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Tuple, Union

from ..cache import ReportCache
from ..errors import ReproError, TraceError
from ..obs import memory as obsmemory
from ..obs.log import (JsonLogger, NullLogger, new_request_id,
                       request_scope)
from ..obs.prom import PROM_CONTENT_TYPE, render_prometheus
from ..reports import SETTINGS, check_settings
from .jobs import (DEFAULT_MAX_QUEUE, JobRunner, QueueFullError,
                   ServiceDrainingError)
from .metrics import ServiceMetrics
from .stack import stack_state
from .store import TraceStore

PathLike = Union[str, Path]

#: Default largest accepted request body (a submitted trace must not be
#: able to exhaust server memory); override per daemon with
#: ``AnalysisServer(max_body_bytes=...)`` / ``repro serve
#: --max-body-bytes``.
DEFAULT_MAX_BODY_BYTES = SETTINGS["max_body_bytes"].default

#: Default bound on one request's blocking wait for a report.
DEFAULT_WAIT_SECONDS = 300.0

#: Default server-side ceiling on any request's blocking wait: whatever
#: a client asks for is clamped here, so no request can wedge a handler
#: thread indefinitely.
MAX_WAIT_SECONDS = SETTINGS["max_wait_seconds"].default

#: Default per-connection socket timeout.  A peer that stops sending
#: (or reading) for this long — a slow-loris — loses its connection
#: instead of pinning a handler thread.
DEFAULT_REQUEST_TIMEOUT = SETTINGS["request_timeout"].default

#: Largest JSON request body (``POST /reports``, a few hundred bytes in
#: practice), or ``max_body_bytes`` if smaller: all a handler buffers.
MAX_JSON_BYTES = 1 << 20

#: Longest a handler reads and drops what a refused client still sends
#: before it closes (RFC 9112's staged close): closing on an unread body
#: resets the connection under a client before it reads the answer.
LINGER_SECONDS = 2.0


class _LimitedReader:
    """A file-like capping reads from a socket stream at a byte budget.

    Feeds :meth:`TraceStore.add_stream` straight from ``rfile`` so an
    upload is hashed and spooled in bounded chunks without ever
    materializing in handler memory.
    """

    def __init__(self, stream, remaining: int) -> None:
        self._stream = stream
        self._remaining = max(0, remaining)

    def read(self, size: int = -1) -> bytes:
        if self._remaining <= 0:
            return b""
        if size is None or size < 0:
            size = self._remaining
        chunk = self._stream.read(min(size, self._remaining))
        self._remaining -= len(chunk)
        return chunk


class _HttpError(Exception):
    """An error with a definite HTTP status, raised by route handlers."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def service(self) -> "AnalysisServer":
        return self.server.service        # type: ignore[attr-defined]

    def setup(self) -> None:
        # Per-connection socket timeout: every blocking read or write
        # on this peer gives up after the budget, so a slow-loris can
        # cost at most one timeout, never a pinned handler thread.
        self.timeout = self.service.request_timeout
        super().setup()

    def finish(self) -> None:
        super().finish()
        if self.close_connection and getattr(self, "_status", 0) >= 400:
            deadline = time.monotonic() + LINGER_SECONDS
            try:
                self.connection.shutdown(socket.SHUT_WR)
                while (left := deadline - time.monotonic()) > 0:
                    self.connection.settimeout(left)
                    if not self.connection.recv(1 << 16):
                        break      # the peer read the answer and closed
            except OSError:
                pass               # gone, or quiet past the deadline

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass       # access logging is structured; see _route

    def _send_json(self, status: int, payload: dict,
                   headers: Optional[dict] = None) -> None:
        request_id = getattr(self, "request_id", None)
        if status >= 400 and request_id \
                and "request_id" not in payload:
            # Error bodies carry the correlation ID so a client-side
            # log of the failure alone is enough to find the handler's
            # access-log line.
            payload = {**payload, "request_id": request_id}
        body = json.dumps(payload, sort_keys=True,
                          allow_nan=False).encode("utf-8")
        if status >= 400:
            # The request body may be wholly or partly unread (413 is
            # decided *before* reading); drop the connection after the
            # answer rather than letting leftover bytes corrupt the
            # next keep-alive request.
            self.close_connection = True
        self._send_body(status, body, "application/json",
                        headers=headers, request_id=request_id)

    def _send_body(self, status: int, body: bytes, content_type: str,
                   headers: Optional[dict] = None,
                   request_id: Optional[str] = None) -> None:
        # Counted first: a client holding the answer sees it counted.
        self._status = status
        self.service.metrics.count(f"responses_{status // 100}xx")
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if request_id:
                self.send_header("X-Request-Id", request_id)
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except (OSError, socket.timeout):
            # The peer is gone or too slow to take the answer; there
            # is nobody left to report the failure to.
            self.close_connection = True

    def _content_length(self) -> int:
        raw = self.headers.get("Content-Length")
        if raw is None:
            return 0
        try:
            length = int(raw)
        except (TypeError, ValueError):
            raise _HttpError(
                400, f"malformed Content-Length header: {raw!r}")
        if length < 0:
            raise _HttpError(
                400, f"Content-Length must not be negative: {raw!r}")
        return length

    def _body_length(self, limit: int) -> int:
        """Validated Content-Length, at most ``limit`` bytes."""
        length = self._content_length()
        if length > limit:
            raise _HttpError(
                413, f"body of {length} bytes exceeds the "
                     f"{limit}-byte limit")
        return length

    def _json_body(self) -> dict:
        limit = min(MAX_JSON_BYTES, self.service.max_body_bytes)
        raw = _LimitedReader(self.rfile, self._body_length(limit)).read()
        try:
            payload = json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, ValueError) as error:
            raise _HttpError(400, f"request body is not JSON: {error}")
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return payload

    def _route(self, method: str) -> None:
        metrics = self.service.metrics
        metrics.count("requests_total")
        path, _, query = self.path.partition("?")
        parts = [part for part in path.split("/") if part]
        metrics.count(f"requests_{method.lower()}_"
                      + (parts[0] if parts else "root"))
        # One correlation ID per request: the client's X-Request-Id if
        # it sent one (ServeClient always does), a fresh one otherwise.
        # It is echoed on every response, carried in 4xx/5xx bodies,
        # bound to the handler thread (so job logs inherit it) and
        # stamped on the access-log line.
        self.request_id = self.headers.get("X-Request-Id") \
            or new_request_id()
        self._status = 0
        started = time.perf_counter()
        try:
            with request_scope(self.request_id), metrics.timed("request"):
                handler = getattr(
                    self, f"_{method.lower()}_{parts[0]}", None) \
                    if parts else None
                if handler is None:
                    raise _HttpError(
                        404, f"no such endpoint: {method} {path}")
                handler(parts[1:], query)
        except _HttpError as error:
            self._send_json(error.status, {"error": str(error)})
        except QueueFullError as error:
            metrics.count("requests_shed")
            self._send_json(
                429, {"error": str(error),
                      "retry_after_seconds": error.retry_after},
                headers={"Retry-After":
                         str(int(math.ceil(error.retry_after)))})
        except ServiceDrainingError as error:
            self._send_json(503, {"error": str(error)},
                            headers={"Retry-After": "1"})
        except socket.timeout:
            # The peer fed (or drained) this connection too slowly;
            # answer 408 if the socket still takes it and cut the line.
            metrics.count("requests_timed_out")
            self._send_json(408, {"error": "connection timed out "
                                           "waiting for the request"})
        except ReproError as error:
            self._send_json(400, {"error": str(error)})
        except Exception as error:     # noqa: BLE001 - last resort: the
            # daemon answers 500 and keeps serving, mirroring the CLI's
            # exit-3 contract for internal errors.
            self._send_json(500, {"error": f"internal error: "
                                           f"{type(error).__name__}: "
                                           f"{error}"})
        self.service.logger.info(
            "request", method=method, path=self.path,
            status=self._status, request_id=self.request_id,
            peer=self.client_address[0],
            duration_ms=round((time.perf_counter() - started) * 1e3, 3))

    def do_GET(self) -> None:          # noqa: N802 - stdlib naming
        self._route("GET")

    def do_POST(self) -> None:         # noqa: N802 - stdlib naming
        self._route("POST")

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _get_healthz(self, rest, query) -> None:
        if rest:
            raise _HttpError(404, "no such endpoint")
        self._send_json(200, {
            "status": "ok",
            "uptime_seconds":
                self.service.metrics.snapshot()["uptime_seconds"],
            "traces": len(self.service.store),
            "stack": stack_state(),
        })

    def _wants_prometheus(self) -> bool:
        """Content negotiation for ``/metrics``: JSON stays the default
        (bare scrapes, ServeClient, the existing dashboards); a client
        asking for ``text/plain`` or the OpenMetrics type — which is
        what a stock Prometheus scraper sends — gets the text
        exposition instead."""
        accept = (self.headers.get("Accept") or "").lower()
        if "application/json" in accept:
            return False
        return "text/plain" in accept or "openmetrics" in accept

    def _get_metrics(self, rest, query) -> None:
        if rest:
            raise _HttpError(404, "no such endpoint")
        snapshot = self.service.metrics.snapshot()
        snapshot["cache"] = self.service.cache.stats()
        snapshot["store"] = self.service.store.stats()
        snapshot["traces"] = len(self.service.store)
        snapshot["workers"] = self.service.workers
        snapshot["draining"] = self.service.runner.draining
        snapshot["gauges"].update(obsmemory.usage())
        snapshot["limits"] = {
            "max_body_bytes": self.service.max_body_bytes,
            "max_queue": self.service.runner.max_queue,
            "max_cache_bytes": self.service.cache.max_bytes,
            "max_store_bytes": self.service.store.max_bytes,
            "max_wait_seconds": self.service.max_wait_seconds,
            "request_timeout_seconds": self.service.request_timeout,
        }
        if self._wants_prometheus():
            body = render_prometheus(snapshot).encode("utf-8")
            self._send_body(200, body, PROM_CONTENT_TYPE,
                            request_id=getattr(self, "request_id", None))
            return
        self._send_json(200, snapshot)

    def _get_traces(self, rest, query) -> None:
        if not rest:
            self._send_json(200, {
                "traces": [entry.to_dict()
                           for entry in self.service.store.entries()]})
            return
        if len(rest) != 1:
            raise _HttpError(404, "no such endpoint")
        try:
            entry = self.service.store.get(rest[0])
        except TraceError as error:
            raise _HttpError(404, str(error))
        self._send_json(200, {"trace": entry.to_dict()})

    def _post_traces(self, rest, query) -> None:
        if rest:
            raise _HttpError(404, "no such endpoint")
        length = self._body_length(self.service.max_body_bytes)
        name = self.headers.get("X-Trace-Name", "")
        try:
            with self.service.metrics.timed("ingest"):
                # Stream the upload straight off the socket into the
                # store: hashed and spooled chunk by chunk, never
                # materialized in handler memory.
                entry, created = self.service.store.add_stream(
                    _LimitedReader(self.rfile, length), name=name)
        except TraceError as error:
            raise _HttpError(400, str(error))
        finally:
            # Validation decoded the whole trace; its chunks are freed.
            obsmemory.release_freed()
        if created:
            self.service.metrics.count("traces_ingested")
        self._send_json(201 if created else 200,
                        {"trace": entry.to_dict(), "created": created})

    def _wait_seconds(self, requested) -> float:
        """Validated, server-clamped blocking wait for one request.

        A request-supplied wait must be a finite-or-infinite
        non-negative number; anything else (strings, booleans, NaN,
        negatives) is a 400.  Whatever survives is clamped to
        ``max_wait_seconds``, so no request wedges a handler thread.
        """
        if requested is None:
            requested = min(DEFAULT_WAIT_SECONDS,
                            self.service.max_wait_seconds)
        if isinstance(requested, bool) \
                or not isinstance(requested, (int, float)):
            raise _HttpError(
                400, f"'timeout' must be a number, got {requested!r}")
        requested = float(requested)
        if math.isnan(requested):
            raise _HttpError(400, "'timeout' must not be NaN")
        if requested < 0:
            raise _HttpError(
                400, f"'timeout' must not be negative: {requested!r}")
        return min(requested, self.service.max_wait_seconds)

    def _post_reports(self, rest, query) -> None:
        if rest:
            raise _HttpError(404, "no such endpoint")
        request = self._json_body()
        sha = request.get("trace")
        if not isinstance(sha, str) or not sha:
            raise _HttpError(400, "request needs a 'trace' digest")
        kind = request.get("kind", "analyze")
        params = request.get("params") or {}
        if not isinstance(params, dict):
            raise _HttpError(400, "'params' must be a JSON object")
        wait = request.get("wait", True)
        if not isinstance(wait, bool):
            raise _HttpError(400, f"'wait' must be true or false: {wait!r}")
        timeout = self._wait_seconds(request.get("timeout"))
        try:
            payload = self.service.runner.fetch(
                sha, kind, params, wait=wait, timeout=timeout)
        except TraceError as error:
            # The runner wants trace bytes it does not have — never
            # stored, or evicted with no cached report to fall back on.
            raise _HttpError(404, str(error))
        self._send_payload(payload)

    def _send_payload(self, payload: dict) -> None:
        """A job payload: 422 if the job failed, 202 while pending."""
        self._send_json({"error": 422, "pending": 202}.get(
            payload.get("status"), 200), payload)

    def _get_reports(self, rest, query) -> None:
        if len(rest) != 1:
            raise _HttpError(404, "no such endpoint")
        wait = None
        for pair in query.split("&"):
            if pair.startswith("wait="):
                try:
                    wait = float(pair[len("wait="):])
                except ValueError:
                    raise _HttpError(400, "wait must be a number")
                wait = self._wait_seconds(wait)
        payload = self.service.runner.lookup(
            rest[0], wait=wait is not None, timeout=wait)
        if payload is None:
            raise _HttpError(404, f"no report under key {rest[0]!r}")
        self._send_payload(payload)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # Re-binding a just-closed port is routine in tests and CI.
    allow_reuse_address = True

    def __init__(self, address, service: "AnalysisServer") -> None:
        self.service = service
        self._wake, self._woken = socket.socketpair()
        self._stopped = threading.Event()
        super().__init__(address, _Handler)

    def serve_forever(self) -> None:
        """Accept until :meth:`shutdown` wakes the loop.  socketserver's
        own loop polls for a stop every 0.5 s, so an idle daemon took
        that long to stop."""
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._woken, selectors.EVENT_READ)
                while True:
                    ready = {key.fileobj for key, _ in selector.select()}
                    if self._woken in ready:
                        break
                    self._handle_request_noblock()
        finally:
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned."""
        self._wake.send(b"\0")
        self._stopped.wait()

    def server_close(self) -> None:
        super().server_close()
        self._wake.close()
        self._woken.close()


class AnalysisServer:
    """The daemon: store + cache + job runner behind an HTTP front.

    Usable embedded (tests, benchmarks)::

        server = AnalysisServer(store_dir, port=0)
        thread = server.start()          # background accept loop
        ... requests against server.url ...
        server.shutdown()                # drains in-flight jobs

    or as a foreground process via ``repro serve``.
    """

    def __init__(self, store_dir: PathLike,
                 host: str = SETTINGS["host"].default, port: int = 0,
                 workers: int = SETTINGS["workers"].default,
                 cache_dir: Optional[PathLike] = None,
                 verbose: bool = False,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                 max_queue: Optional[int] = DEFAULT_MAX_QUEUE,
                 max_cache_bytes: Optional[int] = None,
                 max_store_bytes: Optional[int] = None,
                 max_wait_seconds: float = MAX_WAIT_SECONDS,
                 request_timeout: Optional[float] = \
                     DEFAULT_REQUEST_TIMEOUT) -> None:
        check_settings(host=host, port=port, workers=workers,
                       max_body_bytes=max_body_bytes, max_queue=max_queue,
                       max_cache_bytes=max_cache_bytes,
                       max_store_bytes=max_store_bytes,
                       max_wait_seconds=max_wait_seconds,
                       request_timeout=request_timeout)
        self.store = TraceStore(store_dir, max_bytes=max_store_bytes)
        self.cache = ReportCache(
            Path(cache_dir) if cache_dir is not None
            else Path(store_dir) / "report-cache",
            max_bytes=max_cache_bytes)
        self.metrics = ServiceMetrics()
        self.workers = workers
        self.max_body_bytes = max_body_bytes
        self.max_wait_seconds = float(max_wait_seconds)
        self.request_timeout = request_timeout
        # Structured JSON logs (one object per line on stderr) when
        # verbose; silent otherwise.  The job runner logs under its
        # own component name on the same stream.
        self.logger = JsonLogger(sys.stderr, name="serve") if verbose \
            else NullLogger()
        self.runner = JobRunner(self.store, self.cache,
                                metrics=self.metrics, workers=self.workers,
                                max_queue=max_queue,
                                logger=(self.logger.child("jobs")
                                        if verbose else NullLogger()))
        self.verbose = verbose
        self._httpd = _Server((host, port), self)
        self._thread: Optional[threading.Thread] = None
        self._serving = threading.Event()
        self._closed = threading.Event()

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    def start(self) -> threading.Thread:
        """Run the accept loop in a background thread."""
        if self._thread is not None:
            raise ReproError("server already started")
        self._thread = threading.Thread(
            target=self.serve_forever,
            name="repro-serve-accept", daemon=True)
        self._thread.start()
        return self._thread

    def serve_forever(self) -> None:
        """Run the accept loop on the calling thread (blocks)."""
        self._serving.set()
        self._httpd.serve_forever()

    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, drain in-flight jobs, release the socket.

        Idempotent; with ``drain`` every queued or running job
        completes (and lands in the report cache) before this returns.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        if self._serving.is_set() or self._thread is not None:
            self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=30)
        self.runner.shutdown(wait=drain)
        self._httpd.server_close()

    def __enter__(self) -> "AnalysisServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
