"""The daemon half of a workload: ``repro serve`` under a closed-loop
load generator.

One *cycle* starts ``repro serve --workers 2`` on a fresh store and
drives three phases over plain ``urllib`` (not ``ServeClient``, so a
change to the client library cannot change the load):

* **A, cold** — upload the first traces, then request a cold
  ``analyze`` and a cold ``temporal --windows 64`` report of each;
* **B, reads** — two closed-loop clients fetch cache-hit ``analyze``
  reports of the phase-A traces;
* **C, writes beside reads** — one closed-loop reader keeps fetching
  cache hits while one writer uploads the remaining traces, each
  followed by its cold ``analyze``.

The loops are closed because the daemon's callers wait for each reply.
The generator is this one process with at most two threads (the
calling thread plus one), each holding at most one connection, all to
127.0.0.1.  Every answer is checked: cold reports against the local
reference text, cache hits against their cold payload, and the
daemon's own ``jobs_computed`` counter against the number of distinct
cold requests.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Sequence, Tuple, Union

from common import INDEX, WINDOWS, Tally, child_env, repro_argv

#: Worker threads of the benchmarked daemon.
WORKERS = 2
#: Client-side bound on one request; a slower answer is a failure.
REQUEST_TIMEOUT = 60.0
#: Bound on the daemon's start-up and on its draining shutdown.
LIFECYCLE_TIMEOUT = 30.0


class RequestFailed(Exception):
    """A request that got no usable 2xx answer in time."""


@dataclass
class Trace:
    """One uploadable input with its local reference reports."""

    path: Path
    analyze_text: str
    temporal_text: Optional[str] = None


@dataclass
class CycleResult:
    """Everything one daemon cycle measured."""

    setup_s: float = 0.0
    ingest_s: List[float] = field(default_factory=list)
    cold_analyze_s: List[float] = field(default_factory=list)
    cold_temporal_s: List[float] = field(default_factory=list)
    hit_s: List[float] = field(default_factory=list)
    mixed_hits: int = 0
    mixed_wall_s: float = 0.0
    mixed_write_s: List[float] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    daemon_rss_mb: float = 0.0


class _Client:
    """Closed-loop HTTP calls against one daemon.  Every request, and
    every check of an answer, counts as one operation in ``tally``."""

    def __init__(self, base_url: str, tally: Tally) -> None:
        self.base_url = base_url
        self.tally = tally

    def _call(self, method: str, path: str,
              body: Union[bytes, BinaryIO, None],
              headers: Dict[str, str]) -> dict:
        request = urllib.request.Request(self.base_url + path, data=body,
                                         headers=headers, method=method)
        try:
            with urllib.request.urlopen(request,
                                        timeout=REQUEST_TIMEOUT) as answer:
                status = answer.status
                payload = json.loads(answer.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as error:
            raise self._failed(f"{method} {path}: {error}")
        # 202 means the report was still pending when the wait ran out.
        if status not in (200, 201) or payload.get("status", "ok") != "ok":
            raise self._failed(f"{method} {path}: HTTP {status}, status "
                               f"{payload.get('status')!r}")
        self.tally.check(True, "")
        return payload

    def _failed(self, message: str) -> RequestFailed:
        self.tally.check(False, message)
        return RequestFailed(message)

    def upload(self, path: Path) -> str:
        # Streamed from the file: a trace held in memory here would
        # raise the floor that every later child's peak RSS starts from.
        with open(path, "rb") as body:
            payload = self._call(
                "POST", "/traces", body,
                {"Content-Type": "application/octet-stream",
                 "Content-Length": str(path.stat().st_size),
                 "X-Trace-Name": path.name})
        return payload["trace"]["sha256"]

    def report(self, sha: str, kind: str) -> dict:
        params = {"index": INDEX}
        if kind == "temporal":
            params["windows"] = WINDOWS
        body = json.dumps({"trace": sha, "kind": kind, "params": params,
                           "wait": True}).encode("utf-8")
        return self._call("POST", "/reports", body,
                          {"Content-Type": "application/json"})

    def metrics(self) -> dict:
        return self._call("GET", "/metrics", None,
                          {"Accept": "application/json"})


def _start(store: Path, ready: Path, scratch: Path):
    """Spawn the daemon; returns (process, base URL, seconds to ready)."""
    log = open(scratch / "daemon.log", "wb")
    started = time.perf_counter()
    process = subprocess.Popen(
        repro_argv("serve", "--port", "0", "--store", str(store),
                   "--workers", str(WORKERS), "--ready-file", str(ready)),
        stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        env=child_env())
    log.close()
    deadline = started + LIFECYCLE_TIMEOUT
    while True:
        try:
            fields = ready.read_text().split()
        except OSError:
            fields = []
        if len(fields) == 2:
            break
        if process.poll() is not None or time.perf_counter() > deadline:
            _stop(process)
            raise RuntimeError(
                "daemon did not become ready: "
                + (scratch / "daemon.log").read_text(errors="replace")[-400:])
        time.sleep(0.002)
    setup = time.perf_counter() - started
    host, port = fields
    return process, f"http://{host}:{port}", setup


def _stop(process: subprocess.Popen) -> float:
    """SIGTERM (drain) and reap; returns the daemon's peak RSS in MB."""
    if process.returncode is not None:
        return 0.0
    process.send_signal(signal.SIGTERM)
    watchdog = threading.Timer(LIFECYCLE_TIMEOUT, process.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(process.pid, 0)
    except BaseException:
        process.kill()
        process.wait()
        raise
    finally:
        watchdog.cancel()
    process.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def _timed(function, *arguments) -> Tuple[object, float]:
    started = time.perf_counter()
    value = function(*arguments)
    return value, time.perf_counter() - started


def _hit_loop(client: _Client, keys: Sequence[Tuple[str, str]],
              expected: Dict[str, str], latencies: List[float],
              count: Optional[int] = None,
              stop: Optional[threading.Event] = None) -> None:
    """Closed-loop cache-hit fetches: ``count`` of them, or until
    ``stop`` is set.  Each answer must equal its cold payload."""
    done = 0
    while (count is None or done < count) \
            and not (stop is not None and stop.is_set()):
        sha, kind = keys[done % len(keys)]
        started = time.perf_counter()
        try:
            payload = client.report(sha, kind)
        except RequestFailed:
            done += 1
            continue
        elapsed = time.perf_counter() - started
        client.tally.check(payload.get("cached") is True
                           and payload.get("text") == expected[sha],
                           f"cache hit on {sha[:12]} differs from its "
                           "cold payload")
        latencies.append(elapsed)
        done += 1


def time_start(scratch: Path) -> float:
    """Start the daemon on a fresh store and stop it once it is ready;
    returns the seconds from spawn to ready."""
    process, _, setup = _start(scratch / "store", scratch / "ready", scratch)
    _stop(process)
    return setup


def run_cycle(cold: Sequence[Trace], writes: Sequence[Trace], hits: int,
              scratch: Path, tally: Tally) -> CycleResult:
    """One daemon lifetime on a fresh store: phases A, B and C."""
    result = CycleResult()
    store = scratch / "store"
    ready = scratch / "ready"
    process, base_url, result.setup_s = _start(store, ready, scratch)
    client = _Client(base_url, tally)
    try:
        _phases(client, cold, writes, hits, result)
    finally:
        result.daemon_rss_mb = _stop(process)
    return result


def _phases(client: _Client, cold: Sequence[Trace],
            writes: Sequence[Trace], hits: int,
            result: CycleResult) -> None:
    expected: Dict[str, str] = {}
    # Phase A: cold ingest and cold reports.
    for trace in cold:
        try:
            sha, seconds = _timed(client.upload, trace.path)
            result.ingest_s.append(seconds)
            payload, seconds = _timed(client.report, sha, "analyze")
            result.cold_analyze_s.append(seconds)
            client.tally.check(payload["text"] == trace.analyze_text,
                               f"cold analyze of {trace.path.name} differs "
                               "from the local report")
            expected[sha] = payload["text"]
            payload, seconds = _timed(client.report, sha, "temporal")
            result.cold_temporal_s.append(seconds)
            client.tally.check(payload["text"] == trace.temporal_text,
                               f"cold temporal of {trace.path.name} "
                               "differs from the local report")
        except RequestFailed:
            continue
    keys = [(sha, "analyze") for sha in expected]
    if not keys:
        return
    cold_requests = 2 * len(cold)

    # Phase B: two closed-loop readers of cache hits.
    second: List[float] = []
    helper = threading.Thread(
        target=_hit_loop, args=(client, keys[1:] + keys[:1], expected,
                                second, hits // 2))
    helper.start()
    first: List[float] = []
    _hit_loop(client, keys, expected, first, hits - hits // 2)
    helper.join()
    result.hit_s = first + second

    # Phase C: one reader of cache hits beside one writer.
    stop = threading.Event()
    reader_latencies: List[float] = []
    reader = threading.Thread(
        target=_hit_loop, args=(client, keys, expected, reader_latencies),
        kwargs={"stop": stop})
    started = time.perf_counter()
    reader.start()
    try:
        for trace in writes:
            write_started = time.perf_counter()
            try:
                sha = client.upload(trace.path)
                payload = client.report(sha, "analyze")
            except RequestFailed:
                continue
            result.mixed_write_s.append(time.perf_counter() - write_started)
            cold_requests += 1
            client.tally.check(payload["text"] == trace.analyze_text,
                               f"cold analyze of {trace.path.name} differs "
                               "from the local report")
        result.mixed_hits = len(reader_latencies)
        result.mixed_wall_s = time.perf_counter() - started
    finally:
        stop.set()
        reader.join()
    try:
        result.metrics = client.metrics()
    except RequestFailed:
        return
    computed = result.metrics.get("counters", {}).get("jobs_computed", 0)
    client.tally.check(computed == cold_requests,
                       f"daemon computed {computed} reports for "
                       f"{cold_requests} distinct cold requests")
