"""Thin stdlib client for the analysis service daemon.

Programmatic access::

    from repro.serve.client import ServeClient

    client = ServeClient()             # the daemon at DEFAULT_URL
    meta = client.submit("trace.jsonl")
    payload = client.report(meta["sha256"], kind="analyze")
    print(payload["text"], end="")     # byte-identical to `repro analyze`

Every transport or protocol failure surfaces as
:class:`~repro.errors.ReproError`, so CLI callers inherit the
``exit 2`` contract for free.  The client is deliberately dependency
free (``urllib``), mirroring the daemon's stdlib-only constraint.

**Resilience**: transient failures — a connection that cannot be
established, an HTTP 429 from a full job queue, a 503 from a draining
daemon — are retried with exponential backoff plus jitter, honoring
the server's ``Retry-After`` header when one is sent.  Retrying is
safe on every endpoint: the store is content-addressed and report
computation is single-flighted, so a repeated request is idempotent.
Definite failures (400, 404, 413, 422, ...) are never retried.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
import urllib.error
import urllib.request
from contextlib import nullcontext
from pathlib import Path
from typing import BinaryIO, Optional, Union

from ..cache import iter_chunks
from ..errors import ReproError
from ..obs.log import new_request_id
from ..reports import SETTINGS, check_settings

PathLike = Union[str, Path]

DEFAULT_URL = SETTINGS["url"].default

#: Extra attempts after the first failed one (connection errors and
#: retryable statuses only).
DEFAULT_RETRIES = SETTINGS["retries"].default

#: Ceiling on one backoff sleep; also caps an honored ``Retry-After``.
DEFAULT_RETRY_MAX_WAIT = SETTINGS["retry_max_wait"].default

#: First backoff sleep; doubles per attempt up to the ceiling.
DEFAULT_RETRY_BASE_WAIT = SETTINGS["retry_base_wait"].default

#: HTTP statuses that signal a transient server condition.
RETRY_STATUSES = (429, 503)


def trace_sha256(source: Union[PathLike, bytes]) -> str:
    """Sha256 hex digest of a trace's bytes (path or in-memory): the
    handle the daemon's store files it under."""
    if isinstance(source, bytes):
        return hashlib.sha256(source).hexdigest()
    digest = hashlib.sha256()
    with open(source, "rb") as stream:
        for chunk in iter_chunks(stream):
            digest.update(chunk)
    return digest.hexdigest()


def _retry_after_seconds(headers) -> Optional[float]:
    """The ``Retry-After`` delay a response carries, if parseable."""
    if headers is None:
        return None
    value = headers.get("Retry-After")
    if value is None:
        return None
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None                # HTTP-date form: fall back to backoff
    return seconds if seconds >= 0 else None


class ServeClient:
    """HTTP client for one analysis daemon."""

    def __init__(self, url: str = DEFAULT_URL,
                 timeout: float = 300.0,
                 retries: int = DEFAULT_RETRIES,
                 retry_max_wait: float = DEFAULT_RETRY_MAX_WAIT,
                 retry_base_wait: float = DEFAULT_RETRY_BASE_WAIT,
                 sleep=time.sleep, rng=random.random) -> None:
        check_settings(url=url, timeout=timeout, retries=retries,
                       retry_max_wait=retry_max_wait,
                       retry_base_wait=retry_base_wait)
        self.url = url.rstrip("/")
        if not self.url.startswith(("http://", "https://")):
            raise ReproError(
                f"service URL must be http(s), got {url!r}")
        self.timeout = timeout
        self.retries = retries
        self.retry_max_wait = float(retry_max_wait)
        self.retry_base_wait = float(retry_base_wait)
        # Injection points so tests (and callers embedding the client
        # in an event loop) can observe or replace the waiting.
        self._sleep = sleep
        self._rng = rng

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _backoff(self, attempt: int,
                 retry_after: Optional[float] = None) -> float:
        """Seconds to sleep before retry number ``attempt + 1``.

        Exponential (base * 2^attempt, capped) with multiplicative
        jitter in [0.5x, 1.5x) so a fleet of clients shed by the same
        overloaded daemon does not come back in lockstep.  A server
        ``Retry-After`` raises the floor (capped at the same ceiling):
        the server knows its backlog better than our exponent does.
        """
        wait = min(self.retry_max_wait,
                   self.retry_base_wait * (2 ** attempt))
        wait *= 0.5 + self._rng()
        wait = min(wait, self.retry_max_wait)
        if retry_after is not None:
            wait = max(wait, min(retry_after, self.retry_max_wait))
        return wait

    def _request(self, method: str, path: str,
                 data: Union[bytes, BinaryIO, None] = None,
                 content_type: str = "application/json",
                 headers: Optional[dict] = None) -> dict:
        # One correlation ID per *logical* request, minted here when
        # the caller supplies none: every retry attempt carries the
        # same X-Request-Id, so the daemon's access log shows N
        # attempts of one request rather than N unrelated requests.
        headers = dict(headers or {})
        if "X-Request-Id" not in headers:
            headers["X-Request-Id"] = new_request_id()
        request_id = headers["X-Request-Id"]
        streamed = hasattr(data, "seek")
        if streamed:
            # Sent in blocks; the daemon takes no chunked bodies.
            headers["Content-Length"] = str(os.fstat(data.fileno()).st_size)
        for attempt in range(self.retries + 1):
            if streamed:
                data.seek(0)
            request = urllib.request.Request(
                self.url + path, data=data, method=method,
                headers={"Content-Type": content_type, **headers})
            try:
                with urllib.request.urlopen(
                        request, timeout=self.timeout) as response:
                    body = response.read()
            except urllib.error.HTTPError as error:
                if error.code in RETRY_STATUSES \
                        and attempt < self.retries:
                    self._sleep(self._backoff(
                        attempt, _retry_after_seconds(error.headers)))
                    continue
                detail = error.read().decode("utf-8", "replace")
                try:
                    detail = json.loads(detail).get("error", detail)
                except ValueError:
                    pass
                raise ReproError(
                    f"service answered {error.code} for {method} {path}: "
                    f"{detail} [request {request_id}]") from error
            except (urllib.error.URLError, OSError) as error:
                if attempt < self.retries:
                    self._sleep(self._backoff(attempt))
                    continue
                reason = getattr(error, "reason", error)
                raise ReproError(
                    f"cannot reach analysis service at {self.url}: "
                    f"{reason}") from error
            try:
                return json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as error:
                raise ReproError(
                    f"service sent a non-JSON response to {method} "
                    f"{path}: {error}") from error
        raise AssertionError("unreachable: the retry loop always "
                             "returns or raises")   # pragma: no cover

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def traces(self) -> list:
        return self._request("GET", "/traces")["traces"]

    def trace(self, sha: str) -> dict:
        return self._request("GET", f"/traces/{sha}")["trace"]

    def submit(self, trace: Union[PathLike, bytes],
               name: Optional[str] = None) -> dict:
        """Upload a trace (path or bytes); returns its stored metadata.
        A file is streamed from disk, rewound for each retry.

        Content-addressed: submitting the same bytes twice is
        idempotent (``created`` is False the second time) — which is
        also what makes retrying a submission safe.
        """
        source = None if isinstance(trace, bytes) else Path(trace)
        try:
            body = nullcontext(trace) if source is None else open(source, "rb")
        except OSError as error:
            raise ReproError(f"cannot read {source}: {error}") from error
        if name is None:
            name = "" if source is None else source.name
        with body as data:
            payload = self._request(
                "POST", "/traces", data=data,
                content_type="application/octet-stream",
                headers={"X-Trace-Name": name} if name else None)
        return {**payload["trace"], "created": payload["created"]}

    def report(self, sha: str, kind: str = "analyze", *,
               wait: bool = True, timeout: Optional[float] = None,
               **params) -> dict:
        """The report payload for one stored trace.

        ``params`` are the job parameters (``index=...``, and
        ``windows=...`` for ``kind="temporal"``).  With ``wait`` the
        call blocks until the report is computed (or served from
        cache); the payload's ``text`` is byte-identical to the
        corresponding CLI command's output.
        """
        body = json.dumps({
            "trace": sha, "kind": kind, "params": params,
            "wait": wait, "timeout": timeout,
        }).encode("utf-8")
        return self._request("POST", "/reports", data=body)

    def fetch_text(self, sha: str, kind: str = "analyze",
                   **params) -> str:
        """Just the rendered report text (see :meth:`report`)."""
        return self.report(sha, kind, **params)["text"]


def submit_and_fetch(url: str, trace_path: PathLike,
                     kind: str = "analyze", **params) -> dict:
    """One-shot convenience: ensure the trace is stored, fetch its report.

    Because the store is content-addressed, re-submitting is free; the
    common scripting loop (``repro fetch TRACE``) is therefore a single
    call that works whether or not the trace was submitted before.
    """
    client = ServeClient(url)
    meta = client.submit(trace_path)
    return client.report(meta["sha256"], kind, **params)


__all__ = ["DEFAULT_RETRIES", "DEFAULT_RETRY_BASE_WAIT",
           "DEFAULT_RETRY_MAX_WAIT", "DEFAULT_URL", "RETRY_STATUSES",
           "ServeClient", "submit_and_fetch", "trace_sha256"]
